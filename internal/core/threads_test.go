package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// heavyCorpus has one heavy column cut into two segments at M = 2:
// word 0 is every other token of 1000 documents of 100 tokens, 50 000
// tokens, past max(K, 1024) and past one segment's 43 690.
func heavyCorpus() *corpus.Corpus {
	c := &corpus.Corpus{V: 300, Docs: make([][]int32, 1000)}
	for d := range c.Docs {
		doc := make([]int32, 100)
		for n := 1; n < len(doc); n += 2 {
			doc[n] = int32(1 + (7*d+n)%299)
		}
		c.Docs[d] = doc
	}
	return c
}

// heavySegments counts the segments of w's heavy columns.
func heavySegments(w *Warp) int {
	n := 0
	if w.heavy != nil {
		for _, b := range w.heavy.batches {
			for _, segs := range b.segs {
				n += len(segs)
			}
		}
	}
	return n
}

// samePayloads fails unless a and b hold the same payloads (every
// assignment and pending proposal) and global counts.
func samePayloads(t *testing.T, a, b *Warp) {
	t.Helper()
	if !reflect.DeepEqual(a.m.Payloads(), b.m.Payloads()) {
		t.Fatal("payloads differ")
	}
	if !reflect.DeepEqual(a.GlobalCounts(), b.GlobalCounts()) {
		t.Fatal("global counts differ")
	}
}

// TestEveryThreadCountRunsOneChain: with draws keyed by (iteration,
// phase, key), the heavy-column rule applied at every thread count and
// the log joint added in key order, core.Warp at T = 1, 2 and 3 leaves
// the same payloads, global counts and log joint to the bit after every
// pass, on a corpus whose heavy column has two segments, with a
// symmetric α and with an α vector.
func TestEveryThreadCountRunsOneChain(t *testing.T) {
	c := heavyCorpus()
	vec := defaultCfg(16)
	vec.AlphaVec = make([]float64, 16)
	for k := range vec.AlphaVec {
		vec.AlphaVec[k] = 0.1 + 0.05*float64(k%3)
	}
	for _, cfg := range []sampler.Config{defaultCfg(16), vec} {
		t.Run(fmt.Sprintf("alphavec=%v", cfg.AlphaVec != nil), func(t *testing.T) {
			var ws []*Warp
			for _, threads := range []int{1, 2, 3} {
				cfg.Threads = threads
				w, err := New(c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(w.heavyCols) != 1 || heavySegments(w) < 2 {
					t.Fatalf("T=%d: heavy columns %v in %d segments, want one in two", threads, w.heavyCols, heavySegments(w))
				}
				ws = append(ws, w)
			}
			for pass := 1; pass <= 4; pass++ {
				var lls []float64
				for _, w := range ws {
					w.EvalNext()
					w.Iterate()
					ll, ok := w.LogJoint()
					if !ok {
						t.Fatal("no log joint after a flagged pass")
					}
					lls = append(lls, ll)
				}
				for i, w := range ws[1:] {
					samePayloads(t, w, ws[0])
					if math.Float64bits(lls[i+1]) != math.Float64bits(lls[0]) {
						t.Fatalf("pass %d: log joint %v at T=%d, %v at T=1", pass, lls[i+1], i+2, lls[0])
					}
				}
			}
		})
	}
}
