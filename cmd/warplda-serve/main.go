// Command warplda-serve answers topic-inference queries over HTTP
// against trained model snapshots (written by warplda-train -save).
// It serves many models out of one process: models live in a directory
// (one <name>.bin file or <name>/model.bin subdirectory per model),
// load lazily on first request, are evicted least-recently-used under
// a byte budget, and hot-reload with an atomic swap when their file
// changes on disk — in-flight requests finish on the engine they
// started with. Per-word proposal tables are built once per model
// load; each request document is folded in with the O(1)-per-token MH
// engine, and batches are sharded across a worker pool.
//
// Usage:
//
//	warplda-train -corpus corpus.uci -topics 100 -iters 200 -save models/news.bin
//	warplda-serve -models-dir models -default news -addr :8080
//
// or, single-model (the pre-registry interface, still supported):
//
//	warplda-serve -model models/news.bin -addr :8080
//
// The API is versioned under /v1 (see docs/API.md for the full route
// table, the uniform error envelope, and the pagination rules). Infer
// against the default model or any model by name; raw text works when
// the model was trained with a vocabulary:
//
//	curl -s localhost:8080/v1/infer -d '{"docs": [[0, 5, 7, 5]]}'
//	curl -s localhost:8080/v1/models/news/infer -d '{"texts": ["stock market prices"], "sweeps": 30}'
//	curl -s localhost:8080/v1/models          # admin: per-model state, bytes, hits, versions
//	curl -s localhost:8080/v1/models/news     # admin: one model's lifecycle stats
//	curl -s localhost:8080/v1/healthz
//
// Topic-analytics queries stream ranked rows under row/byte budgets
// with cursor pagination:
//
//	curl -s 'localhost:8080/v1/models/news/query/topwords?topic=3&limit=20'
//	curl -s 'localhost:8080/v1/models/news/query/vocab?prefix=sto'
//	curl -s 'localhost:8080/v1/models/news/query/drift?against=news@120'
//	curl -s localhost:8080/v1/models/news/query/similar -d '{"query_text": "bond prices", "texts": ["...", "..."]}'
//	curl -s localhost:8080/v1/models/news/query/topdocs -d '{"topic": 3, "docs": [[0,5,7],[2,2,9]]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"warplda"
	"warplda/internal/registry"
)

func main() {
	var (
		modelPath = flag.String("model", "", "single model snapshot to serve (legacy; alternative to -models-dir)")
		modelsDir = flag.String("models-dir", "", "directory of model snapshots: <name>.bin or <name>/model.bin")
		defModel  = flag.String("default", "", "model name POST /v1/infer serves (default: the only/first model, or the -model file's name)")
		maxBytes  = flag.Int64("max-model-bytes", 0, "LRU byte budget across resident models (0 = unlimited)")
		reloadIv  = flag.Duration("reload-interval", 2*time.Second, "poll period for hot-reloading changed model files (0 disables)")
		addr      = flag.String("addr", ":8080", "listen address")
		sweeps    = flag.Int("sweeps", 20, "default fold-in sweeps per document")
		mhSteps   = flag.Int("mh", 2, "MH proposal pairs per token per sweep")
		workers   = flag.Int("workers", 0, "inference worker goroutines per model (0 = GOMAXPROCS)")
		maxBatch  = flag.Int("max-batch", 1024, "maximum documents per request")
		seed      = flag.Uint64("seed", 42, "base RNG seed (responses are deterministic in it)")
		coalesce  = flag.Bool("coalesce", true, "merge concurrent single-document requests into batched engine dispatches")
		batchMax  = flag.Int("batch-max", 32, "at most this many documents per coalesced dispatch")
		queueDep  = flag.Int("queue-depth", 256, "admission queue bound per model; beyond it requests shed with 503")
		deadline  = flag.Duration("default-deadline", 0, "server-side deadline for requests without X-Deadline-Ms (0 = none)")
		qLimit    = flag.Int("query-limit", 50, "default rows per query page when the request sets no limit")
		qMaxLimit = flag.Int("query-max-limit", 500, "hard cap on a query page's row limit")
		qMaxBytes = flag.Int64("query-max-bytes", 1<<20, "byte budget for one query page's rows array")
		readTO    = flag.Duration("read-timeout", 30*time.Second, "max duration for reading a full request, body included")
		writeTO   = flag.Duration("write-timeout", 60*time.Second, "max duration per request including inference; must cover the slowest permitted batch (raise alongside -max-batch/large -sweeps)")
		idleTO    = flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
	)
	flag.Parse()

	dir, def, restrict, err := resolveModelSource(*modelPath, *modelsDir, *defModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warplda-serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	reg, err := registry.Open(dir, registry.Options{
		MaxBytes:       *maxBytes,
		ReloadInterval: *reloadIv,
		Infer:          warplda.InferOptions{MHSteps: *mhSteps, Workers: *workers},
		Restrict:       restrict,
	})
	if err != nil {
		log.Fatalf("warplda-serve: %v", err)
	}
	if def == "" {
		if names := registryNames(reg); len(names) > 0 {
			def = names[0]
		}
	}
	if def != "" {
		// Fail fast on a broken default model instead of 500ing later.
		snap, err := reg.Acquire(def)
		if err != nil {
			log.Fatalf("warplda-serve: default model: %v", err)
		}
		log.Printf("default model %q: V=%d K=%d vocab=%v bytes=%d logLik=%.4e",
			def, snap.Model.V, snap.Model.Cfg.K, snap.Vocab != nil, snap.Bytes, snap.Model.LogLik)
	}

	sv, err := NewServer(reg, ServeOptions{
		DefaultModel:    def,
		Sweeps:          *sweeps,
		MaxBatch:        *maxBatch,
		Seed:            *seed,
		Coalesce:        *coalesce,
		BatchMax:        *batchMax,
		QueueDepth:      *queueDep,
		DefaultDeadline: *deadline,

		QueryDefaultLimit: *qLimit,
		QueryMaxLimit:     *qMaxLimit,
		QueryMaxBytes:     *qMaxBytes,
	})
	if err != nil {
		log.Fatalf("warplda-serve: %v", err)
	}

	srv := newHTTPServer(*addr, sv, *readTO, *writeTO, *idleTO)
	go func() {
		log.Printf("serving %s (default model %q) on %s", dir, def, *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("warplda-serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("draining: refusing new inference requests")
	sv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Close the registry on the error path too: log.Fatalf here would
	// exit with the hot-reload poller's cleanup never run.
	if err := srv.Shutdown(ctx); err != nil {
		sv.Close()
		reg.Close()
		log.Printf("warplda-serve: shutdown: %v", err)
		os.Exit(1)
	}
	sv.Close()
	reg.Close()
	log.Print("drained; bye")
}

// resolveModelSource maps the -model/-models-dir/-default flags onto a
// registry directory, default model name, and name allowlist. Exactly
// one of modelPath and modelsDir must be set; a -model path must be a
// <name>.bin file so the registry can address it by name. Single-file
// mode restricts the registry to exactly that name — pointing at one
// file must not remotely expose its sibling snapshots.
func resolveModelSource(modelPath, modelsDir, defModel string) (dir, def string, restrict []string, err error) {
	switch {
	case modelPath == "" && modelsDir == "":
		return "", "", nil, fmt.Errorf("one of -model or -models-dir is required")
	case modelPath != "" && modelsDir != "":
		return "", "", nil, fmt.Errorf("-model and -models-dir are mutually exclusive")
	case modelPath != "":
		base := filepath.Base(modelPath)
		if !strings.HasSuffix(base, ".bin") {
			return "", "", nil, fmt.Errorf("-model %q must be a .bin file", modelPath)
		}
		name := strings.TrimSuffix(base, ".bin")
		if defModel != "" && defModel != name {
			return "", "", nil, fmt.Errorf("-default %q conflicts with -model %q", defModel, modelPath)
		}
		return filepath.Dir(modelPath), name, []string{name}, nil
	default:
		return modelsDir, defModel, nil, nil
	}
}

// registryNames lists the models currently on disk, for defaulting.
func registryNames(reg *registry.Registry) []string {
	var names []string
	for _, mi := range reg.List() {
		names = append(names, mi.Name)
	}
	return names
}

// newHTTPServer wraps h with the full production timeout set. A server
// with only ReadHeaderTimeout lets one slow-dripping request body pin a
// connection (and its handler goroutine) forever; ReadTimeout bounds
// the whole request read, WriteTimeout the response, IdleTimeout
// keep-alive parking.
func newHTTPServer(addr string, h http.Handler, readTO, writeTO, idleTO time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTO,
		WriteTimeout:      writeTO,
		IdleTimeout:       idleTO,
	}
}
