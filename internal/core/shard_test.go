package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"warplda/internal/eval"
	"warplda/internal/sampler"
)

// shardsOf serializes every shard of w and returns them as readers.
func shardsOf(t *testing.T, w *Warp) []io.Reader {
	t.Helper()
	readers := make([]io.Reader, w.NumShards())
	for i := range readers {
		var buf bytes.Buffer
		if err := w.ShardTo(i, &buf); err != nil {
			t.Fatal(err)
		}
		readers[i] = bytes.NewReader(buf.Bytes())
	}
	return readers
}

func rawShards(t *testing.T, w *Warp) [][]byte {
	t.Helper()
	raw := make([][]byte, w.NumShards())
	for i := range raw {
		var buf bytes.Buffer
		if err := w.ShardTo(i, &buf); err != nil {
			t.Fatal(err)
		}
		raw[i] = buf.Bytes()
	}
	return raw
}

func newThreaded(t *testing.T, seed uint64, threads int) *Warp {
	t.Helper()
	cfg := defaultCfg(8)
	cfg.Threads = threads
	w, err := New(testCorpus(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWarpSameTopologyRestoreIsExact pins the bit-exact half of the
// elastic contract: a sharded round trip with an unchanged thread count
// adopts the saved RNG streams and continues the chain exactly as an
// uninterrupted run.
func TestWarpSameTopologyRestoreIsExact(t *testing.T) {
	for _, threads := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			full := newThreaded(t, 30, threads)
			half := newThreaded(t, 30, threads)
			fresh := newThreaded(t, 30, threads)
			const n = 4
			for i := 0; i < 2*n; i++ {
				full.Iterate()
			}
			for i := 0; i < n; i++ {
				half.Iterate()
			}
			reseeded, err := fresh.RestoreShards(uint64(n), fresh.Name(), shardsOf(t, half))
			if err != nil {
				t.Fatal(err)
			}
			if reseeded {
				t.Fatal("same-topology restore reported a reseed")
			}
			if !reflect.DeepEqual(fresh.GlobalCounts(), half.GlobalCounts()) {
				t.Fatal("global counts differ immediately after restore")
			}
			for i := 0; i < n; i++ {
				fresh.Iterate()
			}
			if !reflect.DeepEqual(fresh.Assignments(), full.Assignments()) {
				t.Fatal("restored run diverged from uninterrupted run")
			}
		})
	}
}

// TestWarpElasticRestoreAcrossThreadCounts is the elastic resume table:
// shards written under one thread count restore under another. The
// assignments and global counts must carry over exactly; the RNG
// streams are reseeded (reported via the return), and the resumed
// sampler must remain consistent and keep converging.
func TestWarpElasticRestoreAcrossThreadCounts(t *testing.T) {
	cases := []struct{ from, to int }{
		{1, 4},
		{4, 2},
		{2, 3},
		{4, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			donor := newThreaded(t, 31, tc.from)
			for i := 0; i < 5; i++ {
				donor.Iterate()
			}
			target := newThreaded(t, 31, tc.to)
			reseeded, err := target.RestoreShards(5, target.Name(), shardsOf(t, donor))
			if err != nil {
				t.Fatal(err)
			}
			if !reseeded {
				t.Fatalf("restore %d->%d threads did not report a reseed", tc.from, tc.to)
			}
			if !reflect.DeepEqual(target.Assignments(), donor.Assignments()) {
				t.Fatal("assignments not carried over")
			}
			if !reflect.DeepEqual(target.GlobalCounts(), donor.GlobalCounts()) {
				t.Fatal("global counts not carried over")
			}
			// The repartitioned sampler must stay consistent and improve.
			c := testCorpus(31)
			cfg := defaultCfg(8)
			before := eval.LogJoint(c, target.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
			for i := 0; i < 15; i++ {
				target.Iterate()
			}
			want := countsFromAssignments(target.Assignments(), cfg.K)
			if got := target.GlobalCounts(); !reflect.DeepEqual(got, want) {
				t.Fatal("ck inconsistent after elastic restore")
			}
			after := eval.LogJoint(c, target.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
			if after <= before {
				t.Fatalf("elastically resumed run did not converge: %.1f -> %.1f", before, after)
			}
		})
	}
}

// Distinct salts must derive distinct reseeded streams — two elastic
// resumes of the same checkpoint at different iterations diverge.
func TestWarpElasticReseedDependsOnSalt(t *testing.T) {
	donor := newThreaded(t, 32, 2)
	donor.Iterate()
	a := newThreaded(t, 32, 3)
	b := newThreaded(t, 32, 3)
	if _, err := a.RestoreShards(1, a.Name(), shardsOf(t, donor)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RestoreShards(2, b.Name(), shardsOf(t, donor)); err != nil {
		t.Fatal(err)
	}
	a.Iterate()
	b.Iterate()
	if reflect.DeepEqual(a.Assignments(), b.Assignments()) {
		t.Fatal("different salts produced identical trajectories")
	}
}

// TestWarpRestoreShardsRejectsBadInput is the corruption table for the
// sharded path: every class of damage fails before any live state is
// replaced, and the target stays usable.
func TestWarpRestoreShardsRejectsBadInput(t *testing.T) {
	donor := newThreaded(t, 33, 3)
	donor.Iterate()
	good := rawShards(t, donor)

	cases := []struct {
		name   string
		mutate func([][]byte) [][]byte
	}{
		{"no shards", func(s [][]byte) [][]byte { return nil }},
		{"truncated shard", func(s [][]byte) [][]byte {
			s[1] = s[1][:len(s[1])-5]
			return s
		}},
		{"bad tag", func(s [][]byte) [][]byte {
			s[0] = append([]byte("xxxx\x01"), s[0][5:]...)
			return s
		}},
		{"swapped shards", func(s [][]byte) [][]byte {
			s[0], s[1] = s[1], s[0]
			return s
		}},
		{"missing shard", func(s [][]byte) [][]byte { return s[:2] }},
		{"duplicated shard", func(s [][]byte) [][]byte {
			s[1] = append([]byte(nil), s[0]...)
			return s
		}},
		{"topic out of range", func(s [][]byte) [][]byte {
			// Flip a payload byte to push an assignment far outside [0, K).
			s[0][len(s[0])-3] ^= 0x7f
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := make([][]byte, len(good))
			for i := range cp {
				cp[i] = append([]byte(nil), good[i]...)
			}
			mut := tc.mutate(cp)
			readers := make([]io.Reader, len(mut))
			for i := range mut {
				readers[i] = bytes.NewReader(mut[i])
			}
			target := newThreaded(t, 33, 3)
			before := sampler.CopyAssignments(target.Assignments())
			if _, err := target.RestoreShards(1, target.Name(), readers); err == nil {
				t.Fatal("corrupt shards accepted")
			}
			if !reflect.DeepEqual(before, target.Assignments()) {
				t.Fatal("failed restore mutated the sampler")
			}
			target.Iterate() // must still be usable
		})
	}
}

// Shards from a sampler with a different M are rejected.
func TestWarpRestoreShardsRejectsWrongM(t *testing.T) {
	donor := newThreaded(t, 34, 2)
	cfg := defaultCfg(8)
	cfg.M = 3
	cfg.Threads = 2
	target, err := New(testCorpus(34), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.RestoreShards(0, target.Name(), shardsOf(t, donor)); err == nil {
		t.Fatal("shards with mismatched M accepted")
	}
}

func TestWarpShardToBounds(t *testing.T) {
	w := newThreaded(t, 35, 2)
	if err := w.ShardTo(-1, io.Discard); err == nil {
		t.Fatal("negative shard index accepted")
	}
	if err := w.ShardTo(2, io.Discard); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestWorkerStateRoundTrip encodes a worker state whose RNG words use
// all 64 bits and decodes it back unchanged: the writer must not pass
// them through int, which is 32 bits on some platforms.
func TestWorkerStateRoundTrip(t *testing.T) {
	st := &WorkerState{Index: 1, Workers: 2, M: 1,
		RNGState: [4]uint64{1<<63 | 5, 1<<40 | 3, ^uint64(0), 7},
		Tokens:   Slab{D: []int32{0, 2}, W: []int32{3, 1}, Data: []int32{0, 1, 2, 2}},
	}
	var b bytes.Buffer
	if err := EncodeWorkerState(&b, st); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWorkerState(&b, 3, 1, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip gave %+v, want %+v", got, st)
	}
}
