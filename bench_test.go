// Benchmarks that regenerate every table and figure of the paper's
// evaluation (quick-size variants; run cmd/warplda-bench for full size),
// plus ablation benchmarks for the options of core.Options.
//
//	go test -bench=. -benchmem
package warplda

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"warplda/internal/core"
	"warplda/internal/exp"
	"warplda/internal/infer"
	"warplda/internal/sampler"
)

// benchExp runs one experiment per benchmark iteration. The reports are
// the artifact; the benchmark time is the cost of regenerating them.
func benchExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, exp.Options{Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Lines) == 0 {
			b.Fatalf("%s produced an empty report", id)
		}
	}
}

func BenchmarkTable2(b *testing.B) { benchExp(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExp(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExp(b, "table4") }
func BenchmarkFig4(b *testing.B)   { benchExp(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExp(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExp(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExp(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExp(b, "fig8") }
func BenchmarkFig9a(b *testing.B)  { benchExp(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchExp(b, "fig9b") }
func BenchmarkFig9cd(b *testing.B) { benchExp(b, "fig9cd") }

// --- Ablation benchmarks (one pair per field of core.Options) ---

func ablationCorpus(b *testing.B) *Corpus {
	b.Helper()
	c, err := GenerateLDA(SyntheticConfig{
		D: 600, V: 2000, K: 16, MeanLen: 80, Alpha: 0.1, Beta: 0.01, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchWarpOptions(b *testing.B, k int, opts core.Options) {
	c := ablationCorpus(b)
	cfg := sampler.PaperDefaults(k)
	cfg.M = 2
	w, err := core.NewWithOptions(c, cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	w.Iterate() // warm-up
	tokens := c.NumTokens()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Iterate()
	}
	b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// Doc proposal: random positioning (paper's default) vs per-document
// sparse alias table (both O(1) amortized; positioning skips the build).
func BenchmarkAblationDocPositioning(b *testing.B) {
	benchWarpOptions(b, 1024, core.Options{})
}

func BenchmarkAblationDocAlias(b *testing.B) {
	benchWarpOptions(b, 1024, core.Options{DocProposalAlias: true})
}

// Word proposal alias: sparse over non-zero c_w (default) vs dense over
// all K (O(K) per word).
func BenchmarkAblationSparseAlias(b *testing.B) {
	benchWarpOptions(b, 4096, core.Options{})
}

func BenchmarkAblationDenseAlias(b *testing.B) {
	benchWarpOptions(b, 4096, core.Options{DisableSparseAlias: true})
}

// Sorted vs shuffled CSC entry order (Section 5.2's cache-line argument).
func BenchmarkAblationSortedCSC(b *testing.B) {
	benchWarpOptions(b, 1024, core.Options{})
}

func BenchmarkAblationShuffledCSC(b *testing.B) {
	benchWarpOptions(b, 1024, core.Options{ShuffleTokens: true})
}

// --- Inference serving benchmarks (internal/infer engine) ---

var inferBench struct {
	sync.Once
	model *Model
	docs  [][]int32
	err   error
}

// inferBenchSetup trains one moderately sized model (K=100) and carves
// out a query batch; shared across the inference benchmarks so the
// training cost is paid once per `go test -bench` process.
func inferBenchSetup(b *testing.B) (*Model, [][]int32) {
	b.Helper()
	inferBench.Do(func() {
		c, err := GenerateLDA(SyntheticConfig{
			D: 1200, V: 4000, K: 100, MeanLen: 80, Alpha: 0.1, Beta: 0.01, Seed: 5,
		})
		if err != nil {
			inferBench.err = err
			return
		}
		cfg := Defaults(100)
		cfg.M = 2
		inferBench.model, inferBench.err = Train(c, cfg, 20)
		inferBench.docs = c.Docs[:256]
	})
	if inferBench.err != nil {
		b.Fatal(inferBench.err)
	}
	return inferBench.model, inferBench.docs
}

const inferBenchSweeps = 20

// BenchmarkInferNaiveGibbs is the pre-engine baseline: one doc at a
// time, O(K) per token (infer.ReferenceGibbs, the single authoritative
// copy of the old Model.DocTopics).
func BenchmarkInferNaiveGibbs(b *testing.B) {
	m, docs := inferBenchSetup(b)
	p := infer.Params{
		V: m.V, K: m.Cfg.K, Alpha: m.Cfg.Alpha, Beta: m.Cfg.Beta,
		Cw: m.Cw, Ck: m.Ck,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, doc := range docs {
			infer.ReferenceGibbs(p, doc, inferBenchSweeps, uint64(j))
		}
	}
	b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkInferSequential is the engine-backed Model.DocTopics loop:
// one doc at a time, O(1) per token, single goroutine.
func BenchmarkInferSequential(b *testing.B) {
	m, docs := inferBenchSetup(b)
	m.DocTopics(docs[0], 1, 0) // force the lazy engine build out of the timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, doc := range docs {
			m.DocTopics(doc, inferBenchSweeps, uint64(j))
		}
	}
	b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkInferBatched is the serving path: the whole batch sharded
// across the engine's worker pool (GOMAXPROCS workers).
func BenchmarkInferBatched(b *testing.B) {
	m, docs := inferBenchSetup(b)
	eng, err := NewInferEngine(m, InferOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.InferBatch(docs, inferBenchSweeps, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
}

// End-to-end throughput of the public API's default sampler.
func BenchmarkWarpLDATrainIteration(b *testing.B) {
	c := ablationCorpus(b)
	cfg := Defaults(64)
	s, err := NewSampler(WarpLDA, c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tokens := c.NumTokens()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Iterate()
	}
	b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// --- BenchmarkSample*: the sampling hot path as plain Go benchmarks
// (go test -bench=BenchmarkSample -run '^$' .). Figures that compare
// commits come from benchmark/run.sh, not from these. ---

// sampleBenchCorpus is larger than the ablation corpus so per-iteration
// time dominates setup even at -benchtime=3x.
func sampleBenchCorpus(b *testing.B) *Corpus {
	b.Helper()
	c, err := GenerateLDA(SyntheticConfig{
		D: 2000, V: 5000, K: 32, MeanLen: 120, Alpha: 0.1, Beta: 0.01, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchSample(b *testing.B, p CorpusProvider, threads int) {
	b.Helper()
	cfg := Defaults(128)
	cfg.M = 2
	cfg.Threads = threads
	s, err := NewSampler(WarpLDA, p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Iterate() // warm-up
	tokens := p.NumTokens()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Iterate()
	}
	b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkSampleWarp is the headline serial sampling throughput.
func BenchmarkSampleWarp(b *testing.B) {
	benchSample(b, sampleBenchCorpus(b), 1)
}

// BenchmarkSampleWarpThreaded tracks the parallel phase machinery.
func BenchmarkSampleWarpThreaded(b *testing.B) {
	benchSample(b, sampleBenchCorpus(b), 4)
}

// BenchmarkSampleWarpScaling samples the same corpus at 1, 2, 4, and 8
// threads; the tokens/s of the /threads=N sub-benchmarks over
// /threads=1 is the speedup curve on the machine it runs on.
func BenchmarkSampleWarpScaling(b *testing.B) {
	c := sampleBenchCorpus(b)
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			benchSample(b, c, th)
		})
	}
}

// BenchmarkSampleMappedCorpus is the out-of-core path: identical
// sampling over a memory-mapped .warpcorpus, so a page-cache-hostile
// regression in the mapped Doc path shows up next to the in-memory
// number it should match.
func BenchmarkSampleMappedCorpus(b *testing.B) {
	c := sampleBenchCorpus(b)
	dir := b.TempDir()
	var uci bytes.Buffer
	if err := WriteUCI(&uci, c); err != nil {
		b.Fatal(err)
	}
	path := CorpusCachePath("bench.uci", dir)
	if _, err := BuildCorpusCache(&uci, path, CorpusStreamOptions{}); err != nil {
		b.Fatal(err)
	}
	mc, err := OpenMappedCorpus(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mc.Close()
	benchSample(b, mc, 1)
}

// BenchmarkSampleIngest tracks streaming ingestion itself: UCI bytes →
// spill → assembled cache, in tokens/s of cache build throughput.
func BenchmarkSampleIngest(b *testing.B) {
	c := sampleBenchCorpus(b)
	var uci bytes.Buffer
	if err := WriteUCI(&uci, c); err != nil {
		b.Fatal(err)
	}
	data := uci.Bytes()
	dir := b.TempDir()
	tokens := c.NumTokens()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := CorpusCachePath("ingest.uci", dir)
		if _, err := BuildCorpusCache(bytes.NewReader(data), path, CorpusStreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
}
