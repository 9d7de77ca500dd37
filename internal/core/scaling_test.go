package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"warplda/internal/corpus"
)

// TestThreadSweepConvergenceEquivalence runs the 1/2/4/8-thread matrix
// over one corpus. Every draw is keyed by (seed, iteration, phase, key)
// and the log joint adds its terms in key order, so threads change the
// schedule and never the state: after the same passes, T = 2, 4 and 8
// hold T = 1's payloads, global counts and log joint to the bit, and
// every run keeps ck equal to the histogram of its assignments. Three
// passes take every token through both phases' MH chains.
func TestThreadSweepConvergenceEquivalence(t *testing.T) {
	const passes = 3
	c := testCorpus(40)
	var serial *Warp
	var serialLL float64
	for _, threads := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			cfg := defaultCfg(8)
			cfg.Threads = threads
			w, err := New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < passes; i++ {
				w.EvalNext()
				w.Iterate()
			}
			ll, ok := w.LogJoint()
			if !ok {
				t.Fatal("no log joint after a flagged pass")
			}
			if got, want := w.GlobalCounts(), countsFromAssignments(w.Assignments(), cfg.K); !reflect.DeepEqual(got, want) {
				t.Fatalf("threads=%d: ck inconsistent", threads)
			}
			if serial == nil {
				serial, serialLL = w, ll
				return
			}
			samePayloads(t, w, serial)
			if math.Float64bits(ll) != math.Float64bits(serialLL) {
				t.Fatalf("log joint %v at T=%d, %v at T=1", ll, threads, serialLL)
			}
		})
	}
}

// heavyTailCorpus is a corpus with one word frequent enough to take the
// staged intra-word path (Lw > max(K, 1024)) plus a long tail, so a
// threaded run exercises every stage of heavy.go alongside the chunked
// phases.
func heavyTailCorpus() *corpus.Corpus {
	c := &corpus.Corpus{V: 80, Docs: make([][]int32, 240)}
	for d := range c.Docs {
		doc := make([]int32, 32)
		for n := range doc {
			if n < 8 {
				doc[n] = 0 // 1920 occurrences of word 0
			} else {
				doc[n] = int32(1 + (d*7+n)%79)
			}
		}
		c.Docs[d] = doc
	}
	return c
}

// TestThreadedMergeCorrectness locks the per-pass merge down under the
// race detector: after every threaded iteration, the once-per-pass
// merge of the per-thread delta buffers must reproduce exactly the
// invariant the serial path maintains — the global counts equal the
// histogram of the live assignments and conserve the token total. Run
// with -race this also proves the delta buffers, the staged heavy
// passes, and the barriers are free of data races.
func TestThreadedMergeCorrectness(t *testing.T) {
	c := heavyTailCorpus()
	cfg := defaultCfg(8)
	cfg.Threads = 4
	threaded, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(threaded.heavyCols) == 0 {
		t.Fatal("fixture has no heavy column; the staged path is not exercised")
	}
	serial, err := New(c, defaultCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	total := int32(c.NumTokens())
	for it := 0; it < 8; it++ {
		threaded.Iterate()
		serial.Iterate()
		for name, w := range map[string]*Warp{"threaded": threaded, "serial": serial} {
			got := w.GlobalCounts()
			want := countsFromAssignments(w.Assignments(), cfg.K)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iteration %d: %s merged counts %v, assignment histogram %v", it, name, got, want)
			}
			var sum int32
			for _, v := range got {
				sum += v
			}
			if sum != total {
				t.Fatalf("iteration %d: %s counts sum to %d, corpus has %d tokens", it, name, sum, total)
			}
		}
	}
}

// TestChunkRanges pins the chunking helper: ranges tile the input, none
// is empty, and at least minChunks ranges come back when possible.
func TestChunkRanges(t *testing.T) {
	weights := []int{5, 0, 7, 3, 0, 9, 2, 4}
	ranges := chunkRanges(weights, 10, 3)
	if len(ranges) < 3 {
		t.Fatalf("got %d ranges, want >= 3", len(ranges))
	}
	next := 0
	for _, rg := range ranges {
		if rg[0] != next || rg[1] <= rg[0] {
			t.Fatalf("ranges %v do not tile the input", ranges)
		}
		next = rg[1]
	}
	if next != len(weights) {
		t.Fatalf("ranges end at %d, want %d", next, len(weights))
	}
	if got := chunkRanges(nil, 10, 2); got != nil {
		t.Fatalf("empty input produced ranges %v", got)
	}
	// More workers than items: every item still covered exactly once.
	ranges = chunkRanges([]int{1, 1}, 1, 8)
	next = 0
	for _, rg := range ranges {
		if rg[0] != next {
			t.Fatalf("ranges %v do not tile", ranges)
		}
		next = rg[1]
	}
	if next != 2 {
		t.Fatalf("ranges end at %d, want 2", next)
	}
}
