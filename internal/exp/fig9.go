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
// a speedup fitted to the paper's curve: the work-partition balance
// times a per-thread overhead constant chosen so that 24 threads give
// 17x. The fit is the paper's number, not a measurement.
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
	// Per-thread overhead c of the paper's parallel efficiency curve:
	// 17x at 24 cores on balanced work gives 24/(1+23c) = 17.
	const cOverhead = 0.018
	r.addf("%8s %14s %16s %18s", "threads", "Mtoken/s(wall)", "speedup(wall)", "speedup(paper-fit)")
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
		balCol := balanceSpeedup(tf, n)
		balRow := balanceSpeedup(dl, n)
		bal := (balCol + balRow) / 2
		fit := bal / (1 + cOverhead*float64(n-1))
		r.addf("%8d %14.2f %16.2f %18.2f", n, mps, mps/baseline, fit)
	}
	r.addf("speedup(paper-fit) = partition balance / (1 + c·(threads-1)), c = %g fitted to the paper's 17x at 24 cores; not measured", cOverhead)
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
// corpus: modeled throughput of the sharded sampler's topology at 1..16
// workers. shardedTokenCost measures the per-token cost once; every
// worker count is modeled from it, so the speedup column depends only on
// the seed and the counts, not on how loaded the machine was per row.
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
	cfg := sampler.PaperDefaults(k)
	cfg.M = 1
	cfg.Seed = o.seed()
	cost, err := shardedTokenCost(c, cfg)
	if err != nil {
		return nil, err
	}
	r.addf("%8s %18s %10s %12s", "workers", "Mtoken/s(model)", "speedup", "imbalance")
	var base float64
	for _, p := range workersList {
		d, err := cluster.NewDistributed(c, cfg, p)
		if err != nil {
			return nil, err
		}
		st := d.Model(cost, cluster.InfiniBand())
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
// scaled ClueWeb12-like corpus sharded over 256 workers: convergence of
// the sharded chain against modeled time (9c) and modeled throughput per
// iteration (9d), both from shardedTokenCost through the topology's model.
func Fig9cd(o Options) (*Report, error) {
	r := &Report{ID: "fig9cd", Title: "ClueWeb12-like sharded over 256 workers (K scaled, modeled time)"}
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
	sharded, err := cluster.NewDistributed(c, cfg, 256)
	if err != nil {
		return nil, err
	}
	cost, err := shardedTokenCost(c, cfg)
	if err != nil {
		return nil, err
	}
	st := sharded.Model(cost, cluster.InfiniBand())
	tokens := c.NumTokens()
	r.addf("%6s %14s %16s %18s", "iter", "logLik", "modeled time(s)", "Gtoken/s(model)")
	var t float64
	for it := 1; it <= iters; it++ {
		sharded.Iterate()
		t += st.ModeledSeconds
		if it%every == 0 || it == iters {
			ll := eval.LogJoint(c, sharded.Assignments(), k, cfg.Alpha, cfg.Beta)
			r.addf("%6d %14.4e %16.4f %18.4f", it, ll, t, st.ModeledThroughput(tokens)/1e9)
		}
	}
	r.addf("paper: 11 Gtoken/s on 256 machines, 1M topics in 5 hours")
	return r, nil
}

// shardedTokenCost measures what sampling one token in one phase costs
// the sharded sampler on this machine: a 1-worker Distributed over c runs
// one warm-up iteration, then one timed iteration, which samples every
// token twice (word phase and doc phase). A figure runs this cost through
// Distributed.Model, so its modeled times price the code that runs
// sharded.
func shardedTokenCost(c *corpus.Corpus, cfg sampler.Config) (float64, error) {
	d, err := cluster.NewDistributed(c, cfg, 1)
	if err != nil {
		return 0, err
	}
	d.Iterate() // warm-up
	start := time.Now()
	d.Iterate()
	return time.Since(start).Seconds() / float64(2*c.NumTokens()), nil
}
