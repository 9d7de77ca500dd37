package cluster

import (
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

func simCorpus() *corpus.Corpus {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 200, V: 250, K: 6, MeanLen: 40, Alpha: 0.08, Beta: 0.05, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	return c
}

func TestSimConvergesLikeSingleMachine(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	sim, err := New(c, cfg, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, sim.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 15; i++ {
		sim.Iterate()
	}
	after := eval.LogJoint(c, sim.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("cluster sim did not converge: %.1f -> %.1f", before, after)
	}
}

func TestStatsSane(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	sim, err := New(c, cfg, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.IterateStats()
	if st.WallSeconds <= 0 || st.ComputeSeconds <= 0 || st.ModeledSeconds <= 0 {
		t.Fatalf("non-positive times: %+v", st)
	}
	if st.ModeledSeconds < st.ComputeSeconds && st.ModeledSeconds < st.CommSeconds {
		t.Fatalf("modeled time below both planes: %+v", st)
	}
	if st.BytesMoved <= 0 {
		t.Fatal("4-worker run moved no bytes")
	}
	if st.Imbalance < 0 || st.Imbalance > 1 {
		t.Fatalf("implausible imbalance %g for greedy partition", st.Imbalance)
	}
	if sim.ModeledSeconds() != st.ModeledSeconds {
		t.Fatal("cumulative modeled time mismatch after one iteration")
	}
}

func TestSingleWorkerMovesNoBytes(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	sim, err := New(c, cfg, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.IterateStats()
	if st.BytesMoved != 0 {
		t.Fatalf("single worker moved %d bytes", st.BytesMoved)
	}
}

func TestMoreWorkersLessModeledCompute(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	s1, err := New(c, cfg, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := New(c, cfg, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	st1 := s1.IterateStats()
	st8 := s8.IterateStats()
	// Normalize by wall time: compute share should shrink close to 1/8.
	r1 := st1.ComputeSeconds / st1.WallSeconds
	r8 := st8.ComputeSeconds / st8.WallSeconds
	if r8 > r1/4 {
		t.Fatalf("8-worker compute share %.3f not well below 1-worker %.3f", r8, r1)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	if _, err := New(c, cfg, Config{Workers: 0}); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := New(c, sampler.Config{}, Config{Workers: 2}); err == nil {
		t.Fatal("invalid sampler config accepted")
	}
}

func TestNetworkPresets(t *testing.T) {
	ib, ge := InfiniBand(), Gigabit()
	if ib.BandwidthBytesPerSec <= ge.BandwidthBytesPerSec {
		t.Fatal("InfiniBand not faster than gigabit")
	}
	if ib.LatencySec >= ge.LatencySec {
		t.Fatal("InfiniBand latency not below gigabit")
	}
}

func TestSlowNetworkRaisesCommTime(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	fast, err := New(c, cfg, Config{Workers: 4, Network: InfiniBand()})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(c, cfg, Config{Workers: 4, Network: Gigabit()})
	if err != nil {
		t.Fatal(err)
	}
	sf := fast.IterateStats()
	ss := slow.IterateStats()
	if ss.CommSeconds <= sf.CommSeconds {
		t.Fatalf("gigabit comm %.3g not above InfiniBand %.3g", ss.CommSeconds, sf.CommSeconds)
	}
}
