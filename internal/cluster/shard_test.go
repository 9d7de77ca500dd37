package cluster

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

// shardBlobs serializes every shard of d, as the checkpoint layer does.
func shardBlobs(t *testing.T, d *Distributed) []*bytes.Buffer {
	t.Helper()
	out := make([]*bytes.Buffer, d.NumShards())
	for i := range out {
		out[i] = &bytes.Buffer{}
		if err := d.ShardTo(i, out[i]); err != nil {
			t.Fatalf("ShardTo(%d): %v", i, err)
		}
	}
	return out
}

func readers(bufs []*bytes.Buffer) []io.Reader {
	rs := make([]io.Reader, len(bufs))
	for i, b := range bufs {
		rs[i] = bytes.NewReader(b.Bytes())
	}
	return rs
}

// TestElasticRestoreAcrossWorkerCounts is the tentpole's core claim: a
// sharded state saved under one worker count restores into any other,
// with every invariant intact and convergence quality preserved. The
// corpus is larger than simCorpus: the quality comparison pits two
// independent chains against each other, and log-likelihood spread
// between converged chains shrinks with token count.
func TestElasticRestoreAcrossWorkerCounts(t *testing.T) {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 400, V: 300, K: 6, MeanLen: 60, Alpha: 0.08, Beta: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	for _, tc := range []struct{ oldP, newP int }{
		{1, 3}, {3, 2}, {3, 3}, {2, 4}, {4, 1},
	} {
		t.Run(fmt.Sprintf("p%d_to_p%d", tc.oldP, tc.newP), func(t *testing.T) {
			src, err := NewDistributed(c, cfg, tc.oldP)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				src.Iterate()
			}
			wantCk := src.GlobalCounts()
			wantLL := eval.LogJoint(c, src.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)

			dst, err := NewDistributed(c, cfg, tc.newP)
			if err != nil {
				t.Fatal(err)
			}
			reseeded, err := dst.RestoreShards(4, readers(shardBlobs(t, src)))
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.oldP != tc.newP; reseeded != want {
				t.Fatalf("reseeded = %v, want %v", reseeded, want)
			}
			if !reflect.DeepEqual(dst.GlobalCounts(), wantCk) {
				t.Fatal("restored global counts differ")
			}
			if got := eval.LogJoint(c, dst.Assignments(), cfg.K, cfg.Alpha, cfg.Beta); got != wantLL {
				t.Fatalf("restored log-likelihood %v, want %v", got, wantLL)
			}
			// Every token must land with its owner under the NEW partition.
			for i, sh := range dst.shards {
				for _, w := range sh.W {
					if dst.top.Cols[w] != int32(i) {
						t.Fatalf("token of word %d rebalanced into shard %d, owner is %d", w, i, dst.top.Cols[w])
					}
				}
			}
			// The restored sampler must keep training soundly: token mass
			// conserved, and quality comparable to the uninterrupted run.
			// Run both chains to the converged plateau before comparing —
			// mid-burn-in, independent chains legitimately spread wider
			// than any sensible tolerance.
			for i := 0; i < 26; i++ {
				dst.Iterate()
				src.Iterate()
			}
			var mass int32
			for _, v := range dst.GlobalCounts() {
				mass += v
			}
			if mass != int32(c.NumTokens()) {
				t.Fatalf("token mass %d after elastic resume, want %d", mass, c.NumTokens())
			}
			llDst := eval.LogJoint(c, dst.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
			llSrc := eval.LogJoint(c, src.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
			if llDst <= wantLL {
				t.Fatalf("elastic-resumed chain did not keep converging: LL %.1f from checkpoint-time %.1f", llDst, wantLL)
			}
			if diff := abs(llDst - llSrc); diff > 0.05*abs(llSrc) {
				t.Fatalf("elastic-resumed LL %.1f differs from uninterrupted %.1f by more than 5%%", llDst, llSrc)
			}
		})
	}
}

// Same worker count: the restore must be exact — shards byte-for-byte,
// RNG streams included — so a p→p resume continues precisely the saved
// trajectory.
func TestSameTopologyRestoreIsExact(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	src, err := NewDistributed(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src.Iterate()
	}
	dst, err := NewDistributed(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reseeded, err := dst.RestoreShards(3, readers(shardBlobs(t, src))); err != nil || reseeded {
		t.Fatalf("reseeded=%v err=%v, want false/nil", reseeded, err)
	}
	if !reflect.DeepEqual(dst.shards, src.shards) {
		t.Fatal("restored shards differ from saved shards")
	}
	for i := range src.workers {
		if dst.workers[i].R.State() != src.workers[i].R.State() {
			t.Fatalf("worker %d RNG stream not restored", i)
		}
	}
	// And end to end: continuation is bit-identical.
	for i := 0; i < 3; i++ {
		src.Iterate()
		dst.Iterate()
	}
	if !reflect.DeepEqual(src.Assignments(), dst.Assignments()) {
		t.Fatal("shard-restored run diverged")
	}
}

func TestRestoreShardsRejectsBadInput(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 1
	src, err := NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.Iterate()
	blobs := shardBlobs(t, src)

	fresh := func() *Distributed {
		d, err := NewDistributed(c, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	t.Run("reordered shards", func(t *testing.T) {
		if _, err := fresh().RestoreShards(1, readers([]*bytes.Buffer{blobs[1], blobs[0]})); err == nil {
			t.Fatal("swapped shard order accepted")
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		if _, err := fresh().RestoreShards(1, readers(blobs[:1])); err == nil {
			t.Fatal("missing shard accepted (shard claims 2 workers)")
		}
	})
	t.Run("duplicated shard", func(t *testing.T) {
		if _, err := fresh().RestoreShards(1, readers([]*bytes.Buffer{blobs[0], blobs[0]})); err == nil {
			t.Fatal("duplicated shard accepted")
		}
	})
	t.Run("truncated shard", func(t *testing.T) {
		cut := bytes.NewBuffer(blobs[1].Bytes()[:blobs[1].Len()-9])
		if _, err := fresh().RestoreShards(1, readers([]*bytes.Buffer{blobs[0], cut})); err == nil {
			t.Fatal("truncated shard accepted")
		}
	})
	t.Run("wrong M", func(t *testing.T) {
		cfg2 := cfg
		cfg2.M = 2
		d2, err := NewDistributed(c, cfg2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d2.RestoreShards(1, readers(blobs)); err == nil {
			t.Fatal("M mismatch accepted")
		}
	})
	t.Run("bad shard index", func(t *testing.T) {
		if err := src.ShardTo(2, io.Discard); err == nil {
			t.Fatal("out-of-range shard index accepted")
		}
	})
	// A failed restore must leave the target untouched and usable.
	t.Run("failure leaves sampler intact", func(t *testing.T) {
		d := fresh()
		before := sampler.CopyAssignments(d.Assignments())
		if _, err := d.RestoreShards(1, readers(blobs[:1])); err == nil {
			t.Fatal("partial restore accepted")
		}
		if !reflect.DeepEqual(before, d.Assignments()) {
			t.Fatal("failed restore mutated the sampler")
		}
		d.Iterate()
	})
}
