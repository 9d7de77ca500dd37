package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

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

// TestWarpSameTopologyRestoreIsExact: a sharded round trip with an
// unchanged thread count continues the chain exactly as an
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
			if err := fresh.RestoreShards(n, shardsOf(t, half)); err != nil {
				t.Fatal(err)
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
// shards written under one thread count restore under another, and the
// resumed run is the uninterrupted run of the thread count it resumes
// at — which is every thread count's run — to the bit.
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
			full := newThreaded(t, 31, tc.to)
			for i := 0; i < 5; i++ {
				donor.Iterate()
				full.Iterate()
			}
			target := newThreaded(t, 31, tc.to)
			if err := target.RestoreShards(5, shardsOf(t, donor)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(target.Assignments(), donor.Assignments()) {
				t.Fatal("assignments not carried over")
			}
			if !reflect.DeepEqual(target.GlobalCounts(), donor.GlobalCounts()) {
				t.Fatal("global counts not carried over")
			}
			for i := 0; i < 5; i++ {
				target.Iterate()
				full.Iterate()
			}
			samePayloads(t, target, full)
		})
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
			if err := target.RestoreShards(1, readers); err == nil {
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
	if err := target.RestoreShards(0, shardsOf(t, donor)); err == nil {
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

// TestWorkerStateRoundTrip encodes a worker state and decodes it back
// unchanged, and refuses the same state under the legacy tag by name.
func TestWorkerStateRoundTrip(t *testing.T) {
	st := &WorkerState{Index: 1, Workers: 2, M: 1,
		Tokens: Slab{D: []int32{0, 2}, W: []int32{3, 1}, Data: []int32{0, 1, 2, 2}},
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
	if err := EncodeWorkerState(&b, st); err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(legacyShardTag), b.Bytes()[len(shardTag):]...)
	if _, err := DecodeWorkerState(bytes.NewReader(legacy), 3, 1, 3, 4, 2); err == nil || !strings.Contains(err.Error(), "last version that reads") {
		t.Fatalf("legacy stream: err=%v, want a refusal naming the upgrade route", err)
	}
}
