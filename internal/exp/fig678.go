package exp

import (
	"time"

	"warplda/internal/baselines"
	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

// Fig6 reproduces the distributed convergence comparison of Figure 6:
// WarpLDA (M=4) against LightLDA (M=16) on a ClueWeb12-subset-like
// corpus. WarpLDA runs sharded over 32 workers (cluster.Distributed), and
// its time is that topology's cost model at the measured per-token cost
// (shardedTokenCost); LightLDA's comes from the same per-worker compute
// scaling plus a parameter-server synchronization term for its shared
// C_w matrix (the system design WarpLDA's Section 5 removes).
func Fig6(o Options) (*Report, error) {
	r := &Report{ID: "fig6", Title: "Distributed convergence, 32 workers: WarpLDA(M=4) vs LightLDA(M=16)"}
	cw := corpus.ClueWebLike(pick(o, 0.0000006, 0.0000025))
	cw.Seed = o.seed()
	c, err := corpus.GenerateLDA(cw)
	if err != nil {
		return nil, err
	}
	k := pick(o, 64, 1024)
	workers := 32
	iters := pick(o, 10, 40)
	every := pick(o, 2, 5)

	warpCfg := sampler.PaperDefaults(k)
	warpCfg.M = 4
	warpCfg.Seed = o.seed()
	sharded, err := cluster.NewDistributed(c, warpCfg, workers)
	if err != nil {
		return nil, err
	}
	cost, err := shardedTokenCost(c, warpCfg)
	if err != nil {
		return nil, err
	}
	net := cluster.InfiniBand()

	lightCfg := sampler.PaperDefaults(k)
	lightCfg.M = 16
	lightCfg.Seed = o.seed()
	light, err := baselines.NewLightLDA(c, lightCfg, baselines.LightLDAOptions{})
	if err != nil {
		return nil, err
	}

	r.addf("%-10s %6s %14s %14s", "sampler", "iter", "logLik", "modeled time(s)")
	warpStep := sharded.Model(cost, net).ModeledSeconds
	var warpT float64
	for it := 1; it <= iters; it++ {
		sharded.Iterate()
		warpT += warpStep
		if it%every == 0 || it == iters {
			ll := eval.LogJoint(c, sharded.Assignments(), k, warpCfg.Alpha, warpCfg.Beta)
			r.addf("%-10s %6d %14.4e %14.4f", "WarpLDA", it, ll, warpT)
		}
	}
	// LightLDA distributed model: compute = wall/P on the heaviest doc
	// shard; comm = parameter-server push+pull of word-topic deltas
	// (8 bytes per MH pair per token) at the same network bandwidth.
	tokens := c.NumTokens()
	var lightT float64
	for it := 1; it <= iters; it++ {
		start := time.Now()
		light.Iterate()
		wall := time.Since(start).Seconds()
		compute := wall / float64(workers) * 1.05 // 5% shard imbalance
		psBytes := float64(tokens) / float64(workers) * 8 * float64(lightCfg.M)
		comm := psBytes / net.BandwidthBytesPerSec
		step := compute
		if comm > step {
			step = comm
		}
		lightT += step
		if it%every == 0 || it == iters {
			ll := eval.LogJoint(c, light.Assignments(), k, lightCfg.Alpha, lightCfg.Beta)
			r.addf("%-10s %6d %14.4e %14.4f", "LightLDA", it, ll, lightT)
		}
	}
	r.addf("paper shape: WarpLDA ~10x faster to the same log-likelihood")
	return r, nil
}

// Fig7 reproduces the ablation of Figure 7: bridging from stock LightLDA
// to WarpLDA one design decision at a time (delayed C_w, delayed C_d,
// simple word proposal), all at M=1, showing that none of the MCEM
// simplifications hurt per-iteration convergence.
func Fig7(o Options) (*Report, error) {
	r := &Report{ID: "fig7", Title: "MCEM vs CGS solution quality (LightLDA -> WarpLDA bridge), M=1"}
	nyc := corpus.NYTimesLike(pick(o, 0.0015, 0.005))
	nyc.Seed = o.seed()
	c, err := corpus.GenerateLDA(nyc)
	if err != nil {
		return nil, err
	}
	k := pick(o, 64, 1000)
	iters := pick(o, 30, 100)
	every := pick(o, 3, 10)
	cfg := sampler.PaperDefaults(k)
	cfg.M = 1
	cfg.Seed = o.seed()

	samplers := []sampler.Sampler{}
	for _, opt := range []baselines.LightLDAOptions{
		{},
		{DelayWordCounts: true},
		{DelayWordCounts: true, DelayDocCounts: true},
		{DelayWordCounts: true, DelayDocCounts: true, SimpleProposal: true},
	} {
		l, err := baselines.NewLightLDA(c, cfg, opt)
		if err != nil {
			return nil, err
		}
		samplers = append(samplers, l)
	}
	w, err := core.New(c, cfg)
	if err != nil {
		return nil, err
	}
	samplers = append(samplers, w)

	r.addf("%-22s %6s %14s", "sampler", "iter", "logLik")
	finals := map[string]float64{}
	for _, s := range samplers {
		run := sampler.Train(s, c, cfg, iters, every)
		for _, p := range run.Points {
			r.addf("%-22s %6d %14.4e", run.Sampler, p.Iter, p.LogLik)
		}
		finals[run.Sampler] = run.Final().LogLik
	}
	r.addf("paper shape: all five curves need roughly the same iterations to a given logLik")
	return r, nil
}

// Fig8 reproduces Figure 8: the impact of the MH step count M on
// WarpLDA's convergence — larger M converges in fewer iterations (and,
// up to a point, less time).
func Fig8(o Options) (*Report, error) {
	r := &Report{ID: "fig8", Title: "Impact of M on WarpLDA convergence"}
	nyc := corpus.NYTimesLike(pick(o, 0.0015, 0.005))
	nyc.Seed = o.seed()
	c, err := corpus.GenerateLDA(nyc)
	if err != nil {
		return nil, err
	}
	k := pick(o, 64, 1000)
	iters := pick(o, 12, 60)
	every := pick(o, 3, 5)
	ms := []int{1, 2, 4}
	if !o.Quick {
		ms = append(ms, 8, 16)
	}
	r.addf("%4s %6s %14s %10s", "M", "iter", "logLik", "time(s)")
	for _, m := range ms {
		cfg := sampler.PaperDefaults(k)
		cfg.M = m
		cfg.Seed = o.seed()
		w, err := core.New(c, cfg)
		if err != nil {
			return nil, err
		}
		run := sampler.Train(w, c, cfg, iters, every)
		for _, p := range run.Points {
			r.addf("%4d %6d %14.4e %10.3f", m, p.Iter, p.LogLik, p.Elapsed.Seconds())
		}
	}
	r.addf("paper shape: larger M converges in fewer iterations; small M (1-4) best by wall clock")
	return r, nil
}
