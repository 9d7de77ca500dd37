// Command warplda-coordinator runs the coordinator side of multi-node
// distributed training (internal/dist): it owns the corpus, partitions
// it across whatever workers register, relays token blocks between
// them and aggregates the per-pass global count deltas. The training
// schedule — evaluation, sharded checkpoints, retention, resume — is
// warplda-train's own train.Run. Workers are separate warplda-worker
// processes connecting over TCP.
//
// Fault tolerance is elastic. Every epoch starts from a restore: a
// worker dying mid-pass rewinds the run to the newest checkpoint in
// -checkpoint-dir, a worker joining is admitted from the current state
// at the next pass, and a restarted coordinator resumes the newest
// checkpoint. Restarting the coordinator with live workers requires no
// flags beyond the originals; the workers reconnect on their own.
//
// Usage:
//
//	warplda-coordinator -corpus docword.nips.txt -topics 100 -iters 200 \
//	    -addr :7077 -min-workers 2 -checkpoint-dir ckpt/
//	warplda-worker -coordinator host:7077   # on each worker machine
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"warplda"
	"warplda/internal/corpus"
	"warplda/internal/dist"
	"warplda/internal/sampler"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":7077", "listen address for workers")
		corpusPath = flag.String("corpus", "", "UCI bag-of-words file (required)")
		topics     = flag.Int("topics", 100, "number of topics K")
		alpha      = flag.Float64("alpha", 0, "document-topic prior (0 = paper default 50/K)")
		beta       = flag.Float64("beta", 0.01, "topic-word prior")
		m          = flag.Int("m", 2, "MH steps per token")
		iters      = flag.Int("iters", 100, "training iterations (total, including resumed ones)")
		seed       = flag.Uint64("seed", 42, "random seed")
		minWorkers = flag.Int("min-workers", 1, "workers required before an epoch forms")
		ckptDir    = flag.String("checkpoint-dir", "", "sharded checkpoint directory; doubles as the recovery log (required)")
		ckptEvery  = flag.Int("checkpoint-every", 5, "sync interval in iterations: shard collection, evaluation, checkpoint commit")
		ckptKeep   = flag.Int("checkpoint-keep", 3, "keep the newest N checkpoints")
		hbInterval = flag.Duration("heartbeat-interval", time.Second, "worker ping cadence")
		hbTimeout  = flag.Duration("heartbeat-timeout", 30*time.Second, "silence after which a worker is declared dead")
		publish    = flag.String("publish", "", "publish the model after every committed checkpoint as DIR/NAME (e.g. models/news); a serving registry picks up each refresh")
		pubDelta   = flag.Bool("publish-delta", false, "with -publish: emit an incremental WARPDLT delta per checkpoint instead of a full snapshot, rebasing onto a full snapshot every -delta-max-chain deltas")
		deltaChain = flag.Int("delta-max-chain", 16, "with -publish-delta: full-snapshot rebase cadence")
		pubKeep    = flag.Int("publish-keep", 0, "with -publish: keep only the newest N versioned snapshots (0 = keep all)")
	)
	flag.Parse()

	if *corpusPath == "" || *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "warplda-coordinator: -corpus and -checkpoint-dir are required")
		flag.Usage()
		return 2
	}
	if *pubDelta && *publish == "" {
		fmt.Fprintln(os.Stderr, "warplda-coordinator: -publish-delta requires -publish")
		return 2
	}
	if *pubDelta && *deltaChain < 1 {
		fmt.Fprintln(os.Stderr, "warplda-coordinator: -delta-max-chain must be >= 1")
		return 2
	}
	f, err := os.Open(*corpusPath)
	if err != nil {
		return fatal(err)
	}
	c, err := corpus.ReadUCI(f)
	f.Close()
	if err != nil {
		return fatal(err)
	}
	st := c.Stats()
	log.Printf("corpus: %d docs, %d words, %d tokens", st.D, st.V, st.T)

	cfg := sampler.PaperDefaults(*topics)
	cfg.M = *m
	cfg.Seed = *seed
	cfg.Beta = *beta
	if *alpha > 0 {
		cfg.Alpha = *alpha
	}

	// Publishing rides the sync points: after every committed checkpoint
	// the shadow sampler already holds the globally consistent state, so
	// the hook snapshots it and installs either a full versioned model or
	// one WARPDLT chain link a watching warplda-serve folds in place. A
	// failed publish is logged, never fatal — the next sync retries.
	var onSync func(iter int, s sampler.Sampler)
	if *publish != "" {
		chain := 0
		if *pubDelta {
			chain = *deltaChain
		}
		pub, err := warplda.NewDeltaPublisher(*publish, chain, *pubKeep)
		if err != nil {
			return fatal(err)
		}
		onSync = func(iter int, s sampler.Sampler) {
			r, err := pub.Publish(warplda.Snapshot(c, s, cfg), iter)
			if err != nil {
				log.Printf("publish at iteration %d: %v", iter, err)
				return
			}
			if r.Full {
				log.Printf("published base snapshot: iter %d -> %s", iter, r.Path)
			} else {
				log.Printf("published delta: iter %d -> %s (gen %d, %d cells)", iter, r.Path, r.Gen, r.Cells)
			}
		}
	}

	co, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Addr:              *addr,
		Corpus:            c,
		Cfg:               cfg,
		Iters:             *iters,
		MinWorkers:        *minWorkers,
		CheckpointDir:     *ckptDir,
		CheckpointEvery:   *ckptEvery,
		CheckpointKeep:    *ckptKeep,
		HeartbeatInterval: *hbInterval,
		HeartbeatTimeout:  *hbTimeout,
		Logf:              log.Printf,
		OnSync:            onSync,
	})
	if err != nil {
		return fatal(err)
	}
	log.Printf("listening on %s (min %d workers)", co.Addr(), *minWorkers)

	// SIGINT/SIGTERM cancel the serve loop; the newest committed
	// checkpoint already holds everything a restart needs.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	trace, err := co.Serve(ctx)
	if err != nil && ctx.Err() == nil {
		return fatal(err)
	}
	for _, p := range trace.Points {
		log.Printf("iter %4d  elapsed %8.1fs  logLik %.6e  tokens/s %.3e",
			p.Iter, p.Elapsed.Seconds(), p.LogLik, p.TokensSec)
	}
	if ctx.Err() != nil {
		log.Printf("interrupted; resume by restarting with the same -checkpoint-dir")
		return 1
	}
	log.Printf("training complete")
	return 0
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "warplda-coordinator: %v\n", err)
	return 1
}
