package cluster

import (
	"bytes"
	"io"
	"math"
	"testing"

	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// phaseSampler is a sharded sampler that sums its own log joint.
type phaseSampler interface {
	sampler.Sharded
	sampler.PhaseEvaluator
}

// TestPhaseLogJointMatchesOracle: on the state a flagged Iterate leaves,
// the log joint the WarpLDA samplers sum from their phases' count rows
// equals eval's oracle over their assignments to 1e-9 relative, and
// neither an Iterate that was not flagged nor a restore leaves a sum
// behind.
func TestPhaseLogJointMatchesOracle(t *testing.T) {
	// Zipf(1.1) over 500 words puts thousands of the corpus's tokens on
	// its first word: a heavy column for the threaded sampler.
	c := corpus.GenerateZipf(400, 500, 50, 1.1, 3)
	cfg := sampler.PaperDefaults(64)
	cfg.Seed = 11
	vec := sampler.PaperDefaults(64)
	vec.Seed = 11
	vec.AlphaVec = make([]float64, 64)
	for k := range vec.AlphaVec {
		vec.AlphaVec[k] = 0.05 + 0.02*float64(k%7)
	}
	threaded := func(cfg sampler.Config, n int) sampler.Config { cfg.Threads = n; return cfg }
	warp := func(cfg sampler.Config) func() (phaseSampler, error) {
		return func() (phaseSampler, error) {
			w, err := core.New(c, cfg)
			if err == nil && cfg.Threads > 1 && w.PassStats().HeavyColumns == 0 {
				t.Fatal("threaded case has no heavy column")
			}
			return w, err
		}
	}
	dist := func(cfg sampler.Config, p int) func() (phaseSampler, error) {
		return func() (phaseSampler, error) { return NewDistributed(c, cfg, p) }
	}
	for _, tc := range []struct {
		name string
		cfg  sampler.Config
		new  func() (phaseSampler, error)
	}{
		{"core serial", cfg, warp(cfg)},
		{"core threaded heavy", threaded(cfg, 3), warp(threaded(cfg, 3))},
		{"core alpha vector", vec, warp(vec)},
		{"core threaded alpha vector", threaded(vec, 2), warp(threaded(vec, 2))},
		{"distributed p=1", cfg, dist(cfg, 1)},
		{"distributed p=3", cfg, dist(cfg, 3)},
		{"distributed alpha vector p=3", vec, dist(vec, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			for it := 1; it <= 5; it++ {
				flagged := it%2 == 1
				if flagged {
					s.EvalNext()
				}
				s.Iterate()
				got, ok := s.LogJoint()
				if ok != flagged {
					t.Fatalf("iteration %d: LogJoint reports %v, want %v", it, ok, flagged)
				}
				if !ok {
					continue
				}
				want := sampler.LogJoint(c, s.Assignments(), tc.cfg)
				if rel := math.Abs(got-want) / math.Abs(want); !(rel <= 1e-9) {
					t.Fatalf("iteration %d: phase sum %v, oracle %v (relative %.3g)", it, got, want, rel)
				}
				if again, _ := s.LogJoint(); again != got {
					t.Fatalf("iteration %d: a second LogJoint gave %v, the first %v", it, again, got)
				}
			}
			var shards []io.Reader
			for i := range s.NumShards() {
				var b bytes.Buffer
				if err := s.ShardTo(i, &b); err != nil {
					t.Fatal(err)
				}
				shards = append(shards, &b)
			}
			if _, err := s.RestoreShards(0, s.Name(), shards); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.LogJoint(); ok {
				t.Fatal("a restored state reports the sum of the state before it")
			}
		})
	}
}
