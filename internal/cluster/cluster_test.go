package cluster

import (
	"slices"
	"testing"

	"warplda/internal/corpus"
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

func TestNetworkPresets(t *testing.T) {
	ib, ge := InfiniBand(), Gigabit()
	if ib.BandwidthBytesPerSec <= ge.BandwidthBytesPerSec {
		t.Fatal("InfiniBand not faster than gigabit")
	}
	if ib.LatencySec >= ge.LatencySec {
		t.Fatal("InfiniBand latency not below gigabit")
	}
}

// Model's formula on a topology worked out by hand. Three words over
// three documents at P=2, M=1, K=4:
//
//	d0 = w0 w0 w0 w0 w1 w2, d1 = w0, d2 = w1
//
// The greedy partitions put d0 on worker 0 and d1, d2 on worker 1 (doc
// loads 6, 2), and w0 on worker 0 and w1, w2 on worker 1 (word loads
// 5, 3). Of the tokens of column owner i and row owner j, cross[i][j],
// only the diagonal stays: cross = [[4 1] [2 1]], so after the word
// phase the workers ship 1 and 2 tokens, after the doc phase 2 and 1,
// 8 bytes each (topic and one proposal).
func TestModelOnHandBuiltTopology(t *testing.T) {
	c := &corpus.Corpus{V: 3, Docs: [][]int32{{0, 0, 0, 0, 1, 2}, {0}, {1}}}
	cfg := sampler.PaperDefaults(4)
	cfg.M = 1
	d, err := NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := d.Partitions()
	if !slices.Equal(rows, []int32{0, 1, 1}) || !slices.Equal(cols, []int32{0, 1, 1}) {
		t.Fatalf("partitions rows %v cols %v, want [0 1 1] and [0 1 1]", rows, cols)
	}
	// Bandwidth in bytes/s, latency and cost in seconds, all exact in
	// binary so every expected value below is too.
	const cost, latency = 0.5, 0.25
	for _, tc := range []struct {
		bandwidth float64
		want      Stats
	}{
		// compute = (5 + 6)·0.5 = 5.5; each exchange ships at most
		// 2·8 = 16 bytes, 16/16 + 0.25·(P−1) = 1.25 s; the c_k allreduce
		// moves 8·K = 32 bytes, 2 s: comm = 1.25 + 1.25 + 2 = 4.5. Compute
		// dominates: 5.5 + 2·0.25 = 6.
		{16, Stats{ComputeSeconds: 5.5, CommSeconds: 4.5, ModeledSeconds: 6, BytesMoved: 48, Imbalance: 0.5}},
		// At 4 bytes/s each exchange takes 16/4 + 0.25 = 4.25 s and the
		// allreduce 8 s: comm = 16.5 dominates, 16.5 + 0.5 = 17.
		{4, Stats{ComputeSeconds: 5.5, CommSeconds: 16.5, ModeledSeconds: 17, BytesMoved: 48, Imbalance: 0.5}},
	} {
		// BytesMoved = (1+2+2+1)·8; Imbalance = max(5/4, 6/4) − 1.
		net := NetworkModel{BandwidthBytesPerSec: tc.bandwidth, LatencySec: latency}
		if got := d.Model(cost, net); got != tc.want {
			t.Errorf("bandwidth %g: Model = %+v, want %+v", tc.bandwidth, got, tc.want)
		}
	}
}

// modelStats prices simCorpus's topology at p workers over net.
func modelStats(t *testing.T, p int, net NetworkModel) Stats {
	t.Helper()
	d, err := NewDistributed(simCorpus(), sampler.PaperDefaults(6), p)
	if err != nil {
		t.Fatal(err)
	}
	return d.Model(1e-8, net)
}

func TestSingleWorkerMovesNoBytes(t *testing.T) {
	if st := modelStats(t, 1, InfiniBand()); st.BytesMoved != 0 {
		t.Fatalf("single worker moved %d bytes", st.BytesMoved)
	}
}

// Eight workers cut the heaviest compute share to at most a quarter.
func TestMoreWorkersLessModeledCompute(t *testing.T) {
	s1, s8 := modelStats(t, 1, InfiniBand()), modelStats(t, 8, InfiniBand())
	if s8.ComputeSeconds > s1.ComputeSeconds/4 {
		t.Fatalf("8-worker compute %.3g not well below 1-worker %.3g", s8.ComputeSeconds, s1.ComputeSeconds)
	}
}

// A slower network raises comm alone.
func TestSlowNetworkRaisesCommTime(t *testing.T) {
	fast, slow := modelStats(t, 4, InfiniBand()), modelStats(t, 4, Gigabit())
	if slow.CommSeconds <= fast.CommSeconds || slow.ComputeSeconds != fast.ComputeSeconds {
		t.Fatalf("gigabit %+v against InfiniBand %+v: want more comm, the same compute", slow, fast)
	}
}

// On a real corpus the stats are positive, the modeled time is not below
// both planes, and the greedy partition keeps the imbalance index in
// [0, 1].
func TestStatsSane(t *testing.T) {
	for _, st := range []Stats{modelStats(t, 4, InfiniBand()), modelStats(t, 4, Gigabit())} {
		if st.ComputeSeconds <= 0 || st.ModeledSeconds <= 0 || st.BytesMoved <= 0 {
			t.Errorf("4 workers: non-positive stats %+v", st)
		}
		if st.ModeledSeconds < st.ComputeSeconds && st.ModeledSeconds < st.CommSeconds {
			t.Errorf("modeled time below both planes: %+v", st)
		}
		if st.Imbalance < 0 || st.Imbalance > 1 {
			t.Errorf("implausible imbalance %g for greedy partition", st.Imbalance)
		}
	}
}

// The counts Model prices are what one iteration really does: before
// each phase a worker's load is its shard length, and its shipped count
// is how many of its tokens have another worker as their next owner.
func TestModelCountsMatchExchange(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	for _, p := range []int{1, 3, 8} {
		d, err := NewDistributed(c, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		d.pass.Freeze(d.ck)
		for ph := 0; ph < 2; ph++ {
			for i := range d.shards {
				sh := &d.shards[i]
				if sh.Len() != d.load(ph)[i] {
					t.Fatalf("p=%d phase %d: worker %d holds %d tokens, load says %d", p, ph, i, sh.Len(), d.load(ph)[i])
				}
				away := 0
				for n := range sh.D {
					next := d.top.Rows[sh.D[n]]
					if ph == 1 {
						next = d.top.Cols[sh.W[n]]
					}
					if int(next) != i {
						away++
					}
				}
				if away != d.ship[ph][i] {
					t.Fatalf("p=%d phase %d: worker %d ships %d tokens, ship says %d", p, ph, i, away, d.ship[ph][i])
				}
			}
			d.exchange(ph)
		}
	}
}
