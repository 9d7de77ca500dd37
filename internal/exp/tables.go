package exp

import (
	"time"

	"warplda/internal/baselines"
	"warplda/internal/cachesim"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// Table2 reproduces the paper's Table 2 — the per-algorithm access
// complexity summary — and augments it with *measured* per-token
// throughput of this repository's implementations on a common corpus, so
// the analytical claims can be checked against running code.
func Table2(o Options) (*Report, error) {
	r := &Report{ID: "table2", Title: "Summary of LDA algorithms (analytical + measured)"}
	d := pick(o, 250, 2000)
	v := pick(o, 300, 3000)
	k := pick(o, 32, 256)
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: d, V: v, K: 8, MeanLen: pick(o, 40.0, 120.0), Seed: o.seed(),
	})
	if err != nil {
		return nil, err
	}
	cfg := sampler.PaperDefaults(k)
	cfg.M = 1
	cfg.Seed = o.seed()

	type row struct {
		name       string
		kind       string
		sequential string
		random     string
		size       string
		order      string
		s          sampler.Sampler
	}
	mk := func(s sampler.Sampler, err error) sampler.Sampler {
		if err != nil {
			panic(err)
		}
		return s
	}
	rows := []row{
		{"CGS", "-", "K", "-", "-", "doc", mk(baselines.NewCGS(c, cfg))},
		{"SparseLDA", "SA", "Kd+Kw", "Kd+Kw", "KV", "doc", mk(baselines.NewSparseLDA(c, cfg))},
		{"AliasLDA", "SA&MH", "Kd", "Kd", "KV", "doc", mk(baselines.NewAliasLDA(c, cfg))},
		{"F+LDA", "SA", "Kd", "Kd", "DK", "word", mk(baselines.NewFPlusLDA(c, cfg))},
		{"LightLDA", "MH", "-", "1", "KV", "doc", mk(baselines.NewLightLDA(c, cfg, baselines.LightLDAOptions{}))},
		{"WarpLDA", "MH", "-", "1", "K", "doc&word", mk(core.New(c, cfg))},
	}

	r.addf("%-10s %-6s %-12s %-10s %-8s %-9s %12s", "Algorithm", "Type",
		"Seq/token", "Rand/token", "RandMem", "Order", "Mtoken/s")
	iters := pick(o, 2, 5)
	tokens := c.NumTokens()
	for _, row := range rows {
		row.s.Iterate() // warm-up / burn-in
		start := time.Now()
		for i := 0; i < iters; i++ {
			row.s.Iterate()
		}
		el := time.Since(start).Seconds()
		mps := float64(tokens*iters) / el / 1e6
		r.addf("%-10s %-6s %-12s %-10s %-8s %-9s %12.2f", row.name, row.kind,
			row.sequential, row.random, row.size, row.order, mps)
	}
	r.addf("corpus: %s, K=%d, M=1", c.Stats(), k)
	return r, nil
}

// Table3 reproduces the dataset statistics table for the synthetic
// stand-in corpora, plus the power-law head share the paper quotes for
// ClueWeb12.
func Table3(o Options) (*Report, error) {
	r := &Report{ID: "table3", Title: "Statistics of datasets (synthetic stand-ins)"}
	scaleNYT := pick(o, 0.002, 0.01)
	scalePM := pick(o, 0.0001, 0.0005)
	scaleCW := pick(o, 0.0000008, 0.000004)
	configs := []struct {
		name string
		cfg  corpus.SyntheticConfig
	}{
		{"NYTimes-like", corpus.NYTimesLike(scaleNYT)},
		{"PubMed-like", corpus.PubMedLike(scalePM)},
		{"ClueWeb12-like", corpus.ClueWebLike(scaleCW)},
	}
	r.addf("%-15s %10s %12s %10s %8s %12s", "Dataset", "D", "T", "V", "T/D", "top1% share")
	for _, e := range configs {
		c, err := corpus.GenerateLDA(e.cfg)
		if err != nil {
			return nil, err
		}
		s := c.Stats()
		share := c.TopWordsShare(s.V / 100)
		r.addf("%-15s %10d %12d %10d %8.1f %11.1f%%", e.name, s.D, s.T, s.V, s.L, 100*share)
	}
	r.addf("paper shapes: NYTimes T/D=332, PubMed T/D=90, ClueWeb12 T/D=378")
	return r, nil
}

// Table4 reproduces the L3 cache miss-rate comparison with the software
// cache simulator: the cache geometry is the
// paper's Ivy Bridge scaled down by the same factor as the corpora, so
// the ratio of count-matrix size to L3 size matches the paper's regime.
func Table4(o Options) (*Report, error) {
	r := &Report{ID: "table4", Title: "L3 cache miss rate, M=1 (simulated hierarchy)"}
	type setting struct {
		name string
		d, v int
		k    int
	}
	settings := []setting{
		{"NYTimes-like, small K", pick(o, 400, 1500), pick(o, 500, 2000), pick(o, 64, 256)},
		{"NYTimes-like, large K", pick(o, 400, 1500), pick(o, 500, 2000), pick(o, 256, 1024)},
		{"PubMed-like, small K", pick(o, 800, 3000), pick(o, 500, 2500), pick(o, 256, 1024)},
		{"PubMed-like, large K", pick(o, 800, 3000), pick(o, 500, 2500), pick(o, 512, 4096)},
	}
	algs := []string{cachesim.AlgLightLDA, cachesim.AlgFPlusLDA, cachesim.AlgWarpLDA}
	r.addf("%-24s %10s %10s %10s", "Setting", "LightLDA", "F+LDA", "WarpLDA")
	maxTokens := pick(o, 20000, 200000)
	for _, s := range settings {
		c := corpus.GenerateZipf(s.d, s.v, 60, 0.9, o.seed())
		var miss [3]float64
		for i, alg := range algs {
			// Scale caches so matrix:L3 ratio matches the paper's
			// tens-of-GB vs 30MB regime (factor ~1024).
			h := cachesim.New(cachesim.Scaled(1024))
			if err := cachesim.Replay(alg, c, h, cachesim.ReplayConfig{
				K: s.k, M: 1, MaxTokens: maxTokens, Seed: o.seed(),
			}); err != nil {
				return nil, err
			}
			l3, err := h.Level("L3")
			if err != nil {
				return nil, err
			}
			miss[i] = l3.MissRate()
		}
		r.addf("%-24s %9.1f%% %9.1f%% %9.1f%%", s.name, 100*miss[0], 100*miss[1], 100*miss[2])
	}
	r.addf("paper: LightLDA 33-38%%, F+LDA 17-77%%, WarpLDA 5-17%%")
	return r, nil
}
