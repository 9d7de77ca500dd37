package exp

import (
	"time"

	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
	"warplda/internal/sparse"
)

// Fig9a reproduces the single-machine multithreading scalability figure.
// On the paper's 24-core node the measured speedup is 17x at 24 cores;
// this host may have fewer cores, so the report shows both the measured
// wall-clock speedup (meaningful only up to the host's core count) and
// the modeled speedup from the work-partition balance with the paper's
// parallel efficiency.
func Fig9a(o Options) (*Report, error) {
	r := &Report{ID: "fig9a", Title: "Multi-threading speedup (NYTimes-like)"}
	nyc := corpus.NYTimesLike(pick(o, 0.0015, 0.005))
	nyc.Seed = o.seed()
	c, err := corpus.GenerateLDA(nyc)
	if err != nil {
		return nil, err
	}
	k := pick(o, 64, 1000)
	iters := pick(o, 3, 8)
	tokens := c.NumTokens()

	// Work balance across n workers: contiguous doc/word splits, the same
	// scheme core.Warp uses internally.
	tf := c.TermFrequencies()
	dl := make([]int, c.NumDocs())
	for d, doc := range c.Docs {
		dl[d] = len(doc)
	}

	threads := []int{1, 2, 4}
	if !o.Quick {
		threads = append(threads, 6, 12, 24)
	}
	r.addf("%8s %14s %16s %16s", "threads", "Mtoken/s(wall)", "speedup(wall)", "speedup(model)")
	var baseline float64
	for _, n := range threads {
		cfg := sampler.PaperDefaults(k)
		cfg.M = 2
		cfg.Seed = o.seed()
		cfg.Threads = n
		w, err := core.New(c, cfg)
		if err != nil {
			return nil, err
		}
		w.Iterate() // warm-up
		start := time.Now()
		for i := 0; i < iters; i++ {
			w.Iterate()
		}
		el := time.Since(start).Seconds()
		mps := float64(tokens*iters) / el / 1e6
		if n == 1 {
			baseline = mps
		}
		// Modeled: balance-limited ideal × the paper's parallel
		// efficiency curve (17x/24 cores → per-thread overhead c≈0.018).
		balCol := balanceSpeedup(tf, n)
		balRow := balanceSpeedup(dl, n)
		bal := (balCol + balRow) / 2
		const cOverhead = 0.018
		model := bal / (1 + cOverhead*float64(n-1))
		r.addf("%8d %14.2f %16.2f %16.2f", n, mps, mps/baseline, model)
	}
	r.addf("paper: 17x at 24 cores, 1.96x from the second CPU socket")
	return r, nil
}

// balanceSpeedup returns total/max-part weight for a greedy n-way split —
// the speedup an n-worker phase achieves if compute is the only cost.
func balanceSpeedup(weights []int, n int) float64 {
	pt := sparse.GreedyPartition(weights, n)
	loads := pt.Loads(weights)
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 1
	}
	return float64(total) / float64(max)
}

// Fig9b reproduces the multi-machine speedup figure on the PubMed-like
// corpus: modeled throughput of the simulated cluster at 1..16 workers.
// One iteration on one worker measures the per-token cost; every worker
// count is modeled from it, so the speedup column depends only on the
// seed and the counts, not on how loaded the machine was per row.
func Fig9b(o Options) (*Report, error) {
	r := &Report{ID: "fig9b", Title: "Distributed speedup (PubMed-like, modeled)"}
	pm := corpus.PubMedLike(pick(o, 0.00008, 0.0003))
	pm.Seed = o.seed()
	c, err := corpus.GenerateLDA(pm)
	if err != nil {
		return nil, err
	}
	k := pick(o, 64, 1024)
	workersList := []int{1, 2, 4, 8, 16}
	tokens := c.NumTokens()
	r.addf("%8s %18s %10s %12s", "workers", "Mtoken/s(model)", "speedup", "imbalance")
	var base, perPhaseToken float64
	for _, p := range workersList {
		cfg := sampler.PaperDefaults(k)
		cfg.M = 1
		cfg.Seed = o.seed()
		sim, err := cluster.New(c, cfg, cluster.Config{Workers: p})
		if err != nil {
			return nil, err
		}
		if p == 1 {
			perPhaseToken = sim.IterateStats().WallSeconds / float64(2*tokens)
		}
		st := sim.Model(perPhaseToken)
		thr := st.ModeledThroughput(tokens)
		if p == 1 {
			base = thr
		}
		r.addf("%8d %18.2f %10.2f %12.4f", p, thr/1e6, thr/base, st.Imbalance)
	}
	r.addf("paper: 13.5x at 16 machines")
	return r, nil
}

// Fig9cd reproduces the billion-scale run of Figures 9c and 9d on a
// scaled ClueWeb12-like corpus over 256 simulated workers: convergence
// against modeled time (9c) and modeled throughput per iteration (9d).
func Fig9cd(o Options) (*Report, error) {
	r := &Report{ID: "fig9cd", Title: "ClueWeb12-like on 256 simulated workers (K scaled)"}
	cw := corpus.ClueWebLike(pick(o, 0.0000006, 0.0000025))
	cw.Seed = o.seed()
	c, err := corpus.GenerateLDA(cw)
	if err != nil {
		return nil, err
	}
	k := pick(o, 128, 2048) // paper: 1M topics; scaled with the corpus
	iters := pick(o, 8, 30)
	every := pick(o, 2, 5)
	cfg := sampler.PaperDefaults(k)
	cfg.M = 1
	cfg.Beta = 0.001 // the paper's finer-grained-topics setting for this run
	cfg.Seed = o.seed()
	sim, err := cluster.New(c, cfg, cluster.Config{Workers: 256})
	if err != nil {
		return nil, err
	}
	tokens := c.NumTokens()
	r.addf("%6s %14s %16s %18s", "iter", "logLik", "modeled time(s)", "Gtoken/s(model)")
	var t float64
	for it := 1; it <= iters; it++ {
		st := sim.IterateStats()
		t += st.ModeledSeconds
		if it%every == 0 || it == iters {
			ll := eval.LogJoint(c, sim.Assignments(), k, cfg.Alpha, cfg.Beta)
			r.addf("%6d %14.4e %16.4f %18.4f", it, ll, t, st.ModeledThroughput(tokens)/1e9)
		}
	}
	r.addf("paper: 11 Gtoken/s on 256 machines, 1M topics in 5 hours")
	return r, nil
}
