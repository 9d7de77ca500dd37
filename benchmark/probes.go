package main

// Layer probes: the traced run times direct calls into each layer's
// public functions, sized to the workload's own corpus, configuration
// and model. They run after the measured window and feed only
// per-layer metrics.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"warplda"
	"warplda/internal/alias"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/fsio"
	"warplda/internal/infer"
	"warplda/internal/query"
	"warplda/internal/registry"
	"warplda/internal/rng"
	"warplda/internal/sparse"
	"warplda/internal/tcount"
	"warplda/internal/train"
)

// probeInput is what the probes are sized to: the workload's training
// corpus and configuration (for a serve workload, its model
// fixture's), a sampler trained on it, and two consecutive-iteration
// snapshots of a served-shape model.
type probeInput struct {
	corpusPath string
	c          warplda.CorpusProvider
	cfg        warplda.Config
	warp       *core.Warp
	m0, m1     *warplda.Model
	docs       *warplda.Corpus // the corpus m0 was trained on: where probe documents come from
	threads    int
	dir        string
	seed       uint64
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

const probeReps = 5

// timeMs is the median wall time of reps calls of f, in milliseconds.
func timeMs(reps int, f func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		t := time.Now()
		f()
		ms[i] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// perOpNs is the median over probeReps batches of f(n)'s time per
// operation, in nanoseconds.
func perOpNs(n int, f func(n int)) float64 {
	return timeMs(probeReps, func() { f(n) }) * 1e6 / float64(n)
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// meanTopicsPerWord is the mean number of distinct topics assigned to
// a word that occurs at all: the outcome count of a word's sparse
// alias table.
func meanTopicsPerWord(c warplda.CorpusProvider, z [][]int32) int {
	pairs := make([]uint64, 0, c.NumTokens())
	for d := range z {
		doc := c.Doc(d)
		for n, t := range z[d] {
			pairs = append(pairs, uint64(doc[n])<<32|uint64(uint32(t)))
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a] < pairs[b] })
	distinct, words := 0, 0
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			distinct++
			if i == 0 || p>>32 != pairs[i-1]>>32 {
				words++
			}
		}
	}
	if words == 0 {
		return 1
	}
	if n := distinct / words; n > 1 {
		return n
	}
	return 1
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// runProbes fills pl with every probe-measured per-layer metric.
func runProbes(rc *runCtx, in probeInput, pl map[string]float64) error {
	sp := rc.tr.begin("probes", noSpan, 0)
	defer rc.tr.end(sp)
	r := rng.Derive(in.seed, saltProbe)
	k := in.cfg.K
	tokens := in.c.NumTokens()

	// rng
	pl["rng.uint64_ns"] = perOpNs(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += r.Uint64()
		}
	})
	pl["rng.intn_ns"] = perOpNs(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(r.Intn(k))
		}
	})

	// alias: a sparse table of the workload's mean topics per word, a
	// dense table of K topics.
	nnz := meanTopicsPerWord(in.c, in.warp.Assignments())
	outcomes := make([]int32, nnz)
	weights := make([]float64, nnz)
	for i := range outcomes {
		outcomes[i] = int32(i * (k / nnz))
		weights[i] = 1 + r.Float64()*float64(i%7)
	}
	var st alias.SparseTable
	pl["alias.sparse_build_ns_per_outcome"] = perOpNs(4096, func(n int) {
		for i := 0; i < n; i++ {
			st.Build(outcomes, weights)
		}
	}) / float64(nnz)
	pl["alias.sparse_draw_ns"] = perOpNs(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(st.Draw(r))
		}
	})
	dense := make([]float64, k)
	for i := range dense {
		dense[i] = 0.01 + r.Float64()
	}
	dt := alias.New(dense)
	pl["alias.dense_build_ns_per_topic"] = perOpNs(256, func(n int) {
		for i := 0; i < n; i++ {
			dt.Build(dense)
		}
	}) / float64(k)
	pl["alias.dense_draw_ns"] = perOpNs(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(dt.Draw(r))
		}
	})

	// tcount: one row's Reset / Incr / Get cycle at the two shapes the
	// train workloads put on it.
	cycle := func(c tcount.Counter, reset func(), kk, l int) float64 {
		topics := make([]int32, l)
		for i := range topics {
			topics[i] = int32(r.Intn(kk))
		}
		rows := (1 << 18) / l
		return perOpNs(rows*l, func(int) {
			for row := 0; row < rows; row++ {
				reset()
				for _, t := range topics {
					c.Incr(t)
					sink += uint64(c.Get(t))
				}
			}
		})
	}
	dc := tcount.NewDense(256)
	pl["tcount.dense_cycle_ns_per_token"] = cycle(dc, dc.Reset, 256, 331)
	hc := tcount.NewHash(60)
	pl["tcount.hash_cycle_ns_per_token"] = cycle(hc, func() { hc.ResetFor(4096, 60) }, 4096, 60)

	// sparse: the token matrix of the corpus, then the streaming floor
	// of a pass: visiting every payload by column and by row.
	stride := in.cfg.M + 1
	var mat *sparse.Matrix
	pl["sparse.freeze_ms"] = timeMs(3, func() {
		b := sparse.NewBuilder(in.c.NumDocs(), in.c.NumWords(), stride)
		for d, nd := 0, in.c.NumDocs(); d < nd; d++ {
			for _, w := range in.c.Doc(d) {
				b.AddEntry(d, int(w))
			}
		}
		mat = b.Freeze()
	})
	pl["sparse.col_sweep_ns_per_token"] = perOpNs(tokens, func(int) {
		mat.VisitByColumn(func(_ int, v sparse.ColView) {
			for i, n := 0, v.Len(); i < n; i++ {
				for _, x := range v.Data(i) {
					sink += uint64(x)
				}
			}
		})
	})
	pl["sparse.row_sweep_ns_per_token"] = perOpNs(tokens, func(int) {
		mat.VisitByRow(func(_ int, v sparse.RowView) {
			for i, n := 0, v.Len(); i < n; i++ {
				for _, x := range v.Data(i) {
					sink += uint64(x)
				}
			}
		})
	})
	mat = nil

	// corpus
	var perr error
	fail := func(err error) {
		if perr == nil && err != nil {
			perr = err
		}
	}
	pl["corpus.read_uci_ms"] = timeMs(3, func() {
		c, err := readUCIFile(in.corpusPath)
		fail(err)
		if c != nil {
			sink += uint64(c.NumTokens())
		}
	})
	cache := filepath.Join(in.dir, "probe.warpcorpus")
	pl["corpus.build_cache_ms"] = timeMs(3, func() {
		f, err := os.Open(in.corpusPath)
		if err != nil {
			fail(err)
			return
		}
		defer f.Close()
		_, err = corpus.BuildCache(f, cache, corpus.StreamOptions{TmpDir: in.dir})
		fail(err)
	})
	pl["corpus.open_mapped_ms"] = timeMs(probeReps, func() {
		mc, err := corpus.OpenMapped(cache)
		if err != nil {
			fail(err)
			return
		}
		sink += uint64(mc.NumTokens())
		fail(mc.Close())
	})
	if perr != nil {
		return fmt.Errorf("corpus probes: %w", perr)
	}

	// core: construction, serialized state size, and what C threads buy
	// over one on this corpus and configuration.
	pl["core.new_ms"] = timeMs(3, func() {
		w, err := core.New(in.c, in.cfg)
		fail(err)
		if w != nil {
			sink += uint64(w.K())
		}
	})
	var cw countingWriter
	fail(in.warp.StateTo(&cw))
	pl["core.state_bytes_per_token"] = float64(cw.n) / float64(tokens)
	threeIters := func(threads int) float64 {
		cfg := in.cfg
		cfg.Threads = threads
		w, err := core.New(in.c, cfg)
		if err != nil {
			fail(err)
			return 1
		}
		w.Iterate() // first pass builds lazily sized state
		return timeMs(1, func() {
			for i := 0; i < 3; i++ {
				w.Iterate()
			}
		})
	}
	pl["core.thread_speedup"] = threeIters(1) / threeIters(in.threads)

	// eval
	pl["eval.loglik_ms"] = timeMs(3, func() {
		sink += uint64(-warplda.LogLikelihood(in.c, in.warp, in.cfg))
	})

	// train: one sharded checkpoint of the trained sampler.
	ckDir := filepath.Join(in.dir, "probe-ckpt")
	ck := &train.Checkpoint{Sampler: in.warp.Name(), Cfg: in.cfg, Iter: 1, Fingerprint: train.CorpusFingerprint(in.c)}
	pl["train.ckpt_write_ms"] = timeMs(3, func() {
		_, err := ck.WriteSharded(ckDir, in.warp)
		fail(err)
	})
	ckBytes, err := dirBytes(ckDir)
	fail(err)
	pl["train.ckpt_bytes"] = float64(ckBytes)

	// fsio: 16 MiB through the atomic writer with its CRC, then the
	// delta codec on the difference of the two snapshots.
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	blob := filepath.Join(in.dir, "probe.blob")
	ms := timeMs(3, func() {
		_, err := fsio.AtomicWriteFile(blob, ".probe-*", func(w io.Writer) (int64, error) {
			n, err := fsio.NewCRCWriter(w).Write(buf)
			return int64(n), err
		})
		fail(err)
	})
	pl["fsio.atomic_write_mb_per_s"] = 16 / (ms / 1e3)
	buf = nil

	m0, m1 := in.m0, in.m1
	v, mk := m0.V, m0.Cfg.K
	var cells []fsio.DeltaCell
	pl["fsio.diff_counts_ms"] = timeMs(3, func() { cells = fsio.DiffCounts(v, mk, m0.Cw, m1.Cw) })
	pl["fsio.delta_cells"] = float64(len(cells))
	baseFP := fsio.ModelFingerprint(v, mk, m0.Cw, m0.Ck)
	delta := &fsio.ModelDelta{
		V: v, K: mk, Gen: 1, BaseFP: baseFP, NewFP: fsio.ChainFingerprint(baseFP, 1, cells, m1.Ck),
		Iter: 1, LogLik: m1.LogLik, Cells: cells, Ck: m1.Ck,
	}
	var enc bytes.Buffer
	pl["fsio.delta_write_ms"] = timeMs(3, func() {
		enc.Reset()
		_, err := delta.WriteDelta(&enc)
		fail(err)
	})
	pl["fsio.delta_read_ms"] = timeMs(3, func() {
		_, err := fsio.ReadDelta(bytes.NewReader(enc.Bytes()))
		fail(err)
	})

	// model
	modelDir := filepath.Join(in.dir, "probe-models")
	fail(os.MkdirAll(modelDir, 0o755))
	modelPath := filepath.Join(modelDir, modelName+".bin")
	var modelBytes int64
	pl["model.write_ms"] = timeMs(3, func() {
		n, err := m0.WriteFile(modelPath)
		fail(err)
		modelBytes = n
	})
	pl["model.bytes"] = float64(modelBytes)
	pl["model.read_ms"] = timeMs(3, func() {
		_, err := readModelFile(modelPath)
		fail(err)
	})

	// infer
	opts := warplda.InferOptions{MHSteps: serverMH, Workers: in.threads}
	var eng *warplda.InferEngine
	pl["infer.engine_build_ms"] = timeMs(3, func() {
		e, err := warplda.NewInferEngine(m0, opts)
		fail(err)
		eng = e
	})
	if perr != nil {
		return fmt.Errorf("probes: %w", perr)
	}
	pl["infer.engine_bytes"] = float64(eng.MemoryBytes())
	docs := make([][]int32, 16)
	for i := range docs {
		docs[i] = corpusWindow(r, in.docs, 256)
	}
	docTokens := 0
	for _, d := range docs {
		docTokens += len(d)
	}
	pl["infer.ns_per_token_sweep"] = perOpNs(docTokens*serverSweeps, func(int) {
		for _, d := range docs {
			th, err := eng.Infer(d, serverSweeps, serverSeed)
			fail(err)
			sink += uint64(len(th))
		}
	})
	pl["infer.batch_tokens_per_s"] = float64(docTokens) / (timeMs(probeReps, func() {
		th, err := eng.InferBatch(docs, serverSweeps, serverSeed)
		fail(err)
		sink += uint64(len(th))
	}) / 1e3)
	var before, after runtime.MemStats
	const allocRuns = 64
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		th, _ := eng.Infer(docs[0], serverSweeps, serverSeed)
		sink += uint64(len(th))
	}
	runtime.ReadMemStats(&after)
	pl["infer.allocs_per_infer"] = float64((after.Mallocs - before.Mallocs) / allocRuns)
	rebuilt := 0
	pl["infer.apply_delta_ms"] = timeMs(3, func() {
		_, n, err := eng.ApplyDelta(delta)
		fail(err)
		rebuilt = n
	})
	pl["infer.words_rebuilt_share"] = float64(rebuilt) / float64(v)

	// batcher and gate: one caller, so a Do costs the linger.
	b := infer.NewBatcher(func(docs [][]int32, _ []int) ([][]float64, any, error) {
		return make([][]float64, len(docs)), nil, nil
	}, infer.BatcherOptions{})
	pl["batcher.solo_do_us"] = timeMs(20, func() {
		_, _, err := b.Do(docs[0], 1, time.Time{})
		fail(err)
	}) * 1e3
	b.Close()
	g := infer.NewGate(0)
	pl["gate.enter_ns"] = perOpNs(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			release, err := g.Enter(time.Time{})
			if err == nil {
				release()
			}
		}
	})

	// registry: cold load (file read + engine build), then resident hits.
	var reg *registry.Registry
	pl["registry.cold_load_ms"] = timeMs(3, func() {
		if reg != nil {
			reg.Close()
		}
		var err error
		reg, err = registry.Open(modelDir, registry.Options{Infer: opts})
		if err != nil {
			fail(err)
			return
		}
		_, err = reg.Acquire(modelName)
		fail(err)
	})
	if perr != nil {
		return fmt.Errorf("probes: %w", perr)
	}
	pl["registry.acquire_ns"] = perOpNs(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			if s, err := reg.Acquire(modelName); err == nil {
				sink += uint64(s.Version)
			}
		}
	})
	reg.Close()

	// query: one page of 50 rows.
	qm := query.Model{Engine: eng, Vocab: m0.Vocab}
	pl["query.topwords_page_us"] = timeMs(probeReps, func() {
		it, err := query.TopWords(qm, r.Intn(mk), 50)
		if err != nil {
			fail(err)
			return
		}
		rows, err := query.Collect(query.Limit(it, 50))
		fail(err)
		sink += uint64(len(rows))
	}) * 1e3
	pl["query.vocab_page_us"] = timeMs(probeReps, func() {
		rows, err := query.Collect(query.Limit(query.VocabSlice(qm, ""), 50))
		fail(err)
		sink += uint64(len(rows))
	}) * 1e3
	if perr != nil {
		return fmt.Errorf("probes: %w", perr)
	}
	return nil
}

// finishCore turns the core.iterate spans of a traced run into
// per-token figures and relates them to the sweep floor the sparse
// probes measured.
func finishCore(pl map[string]float64, iterateMs []float64, tokens int) {
	ns := make([]float64, len(iterateMs))
	for i, ms := range iterateMs {
		ns[i] = ms * 1e6 / float64(tokens)
	}
	pl["core.iterate_ns_per_token_p50"] = quantile(ns, 0.5)
	pl["core.iterate_ns_per_token_p90"] = quantile(ns, 0.9)
	pl["core.sweep_floor_ratio"] = pl["core.iterate_ns_per_token_p50"] /
		(pl["sparse.col_sweep_ns_per_token"] + pl["sparse.row_sweep_ns_per_token"])
}

// A workload reports every per-layer metric; the counts, shares and
// ratios of layers it does not run are zero.
func zeroServeLayers(pl map[string]float64) {
	for _, name := range []string{
		"batcher.docs_per_dispatch", "batcher.shed_share",
		"registry.fold_share", "registry.deltas_applied", "registry.delta_rejected", "registry.words_rebuilt",
		"serve.http_gap_share", "serve.engine_share", "serve.query_over_infer_p50",
	} {
		pl[name] = 0
	}
}

func zeroTrainLayers(pl map[string]float64) {
	for _, name := range []string{
		"train.ckpt_stall_share", "train.eval_share", "train.loop_overhead_share", "train.iters_to_ll",
	} {
		pl[name] = 0
	}
}
