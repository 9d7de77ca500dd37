package train_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"warplda/internal/baselines"
	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// TestResumeSamplerGuard is Checkpoint.Verify's sampler guard as a
// table over every pair of samplers. The two WarpLDA samplers resume
// each other's checkpoints both ways, carrying the state over (every
// document's (word, topic) multiset and C_k exactly, so the oracle's
// log joint up to rounding); at an
// unchanged worker count the reseed they report is the sampler change's
// alone. Every other pair of different samplers is refused: each
// baseline refuses both WarpLDA samplers, both refuse each baseline, and
// the baselines refuse each other.
func TestResumeSamplerGuard(t *testing.T) {
	c := testCorpus(49)
	cfg := testCfg(6)
	cfg.Threads = 2
	// The first two are the WarpLDA samplers.
	builders := []func() (sampler.Sampler, error){
		func() (sampler.Sampler, error) { return newWarp(t, c, cfg), nil },
		func() (sampler.Sampler, error) { return newDist(t, c, cfg), nil },
		func() (sampler.Sampler, error) { return baselines.NewCGS(c, cfg) },
		func() (sampler.Sampler, error) { return baselines.NewSparseLDA(c, cfg) },
		func() (sampler.Sampler, error) { return baselines.NewAliasLDA(c, cfg) },
		func() (sampler.Sampler, error) { return baselines.NewFPlusLDA(c, cfg) },
		func() (sampler.Sampler, error) { return baselines.NewLightLDA(c, cfg, baselines.LightLDAOptions{}) },
	}
	build := func(i int) sampler.Sampler {
		t.Helper()
		s, err := builders[i]()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type written struct {
		ck    *train.Checkpoint
		ll    float64
		hist  []int32    // C_k as the assignments imply it
		cells [][]uint64 // per document, its sorted (word, topic) pairs
	}
	cks := make([]written, len(builders))
	for i := range builders {
		s := build(i)
		dir := t.TempDir()
		if _, err := train.Run(s, c, cfg, train.Options{Iters: 2, CheckpointDir: dir}); err != nil {
			t.Fatal(err)
		}
		ck, err := train.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		asg := s.Assignments()
		cks[i] = written{ck, eval.LogJoint(c, asg, cfg.K, cfg.Alpha, cfg.Beta), countsOf(asg, cfg.K), cellsOf(c, asg)}
	}
	fp := train.CorpusFingerprint(c)

	for wi, w := range cks {
		for ri := range builders {
			r := build(ri)
			t.Run(w.ck.Sampler+"_as_"+r.Name(), func(t *testing.T) {
				err := w.ck.Verify(r.Name(), fp, cfg)
				warpPair := wi < 2 && ri < 2
				switch {
				case wi == ri || warpPair:
					if err != nil {
						t.Fatalf("refused: %v", err)
					}
				case err == nil:
					t.Fatal("accepted")
				default:
					return
				}
				if !warpPair || wi == ri {
					return
				}
				if err := w.ck.RestoreInto(r.(sampler.Sharded)); err != nil {
					t.Fatal(err)
				}
				asg := r.Assignments()
				if got := cellsOf(c, asg); !reflect.DeepEqual(got, w.cells) {
					t.Fatal("restored documents hold other (word, topic) multisets than the saved ones")
				}
				if got := r.(interface{ GlobalCounts() []int32 }).GlobalCounts(); !reflect.DeepEqual(got, w.hist) {
					t.Fatalf("restored C_k %v, want %v", got, w.hist)
				}
				// The same multiset, summed by the oracle in another order
				// (the samplers list a cell's topics differently): only
				// rounding may separate the two log joints.
				const ulps = 8
				if got := eval.LogJoint(c, asg, cfg.K, cfg.Alpha, cfg.Beta); math.Abs(got-w.ll) > ulps*0x1p-52*math.Abs(w.ll) {
					t.Fatalf("log joint %v after restore, want %v within %d ulps", got, w.ll, ulps)
				}
			})
		}
	}
}

// cellsOf lists each document's tokens as (word, topic) pairs in
// ascending order: the state up to the order of topics within a
// (document, word) cell, which no sampler fixes.
func cellsOf(c corpus.Provider, asg [][]int32) [][]uint64 {
	out := make([][]uint64, len(asg))
	for d, zs := range asg {
		for n, z := range zs {
			out[d] = append(out[d], uint64(c.Doc(d)[n])<<32|uint64(z))
		}
		slices.Sort(out[d])
	}
	return out
}

// countsOf is the topic histogram of assignments.
func countsOf(asg [][]int32, k int) []int32 {
	h := make([]int32, k)
	for _, doc := range asg {
		for _, z := range doc {
			h[z]++
		}
	}
	return h
}
