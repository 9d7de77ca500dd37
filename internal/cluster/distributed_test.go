package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"warplda/internal/core"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

func TestDistributedConverges(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	d, err := NewDistributed(c, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 20; i++ {
		d.Iterate()
	}
	after := eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("sharded sampler did not converge: %.1f -> %.1f", before, after)
	}
}

func TestDistributedConservesTokens(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 1
	d, err := NewDistributed(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := int32(c.NumTokens())
	for i := 0; i < 5; i++ {
		d.Iterate()
		var sum int32
		for _, v := range d.GlobalCounts() {
			sum += v
		}
		if sum != total {
			t.Fatalf("iteration %d: ck sums to %d, want %d", i, sum, total)
		}
		// No token lost or duplicated across exchanges.
		n := 0
		for i := range d.shards {
			n += d.shards[i].Len()
		}
		if n != int(total) {
			t.Fatalf("iteration %d: %d tokens in shards, want %d", i, n, total)
		}
	}
}

func TestDistributedCkMatchesAssignments(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	d, err := NewDistributed(c, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Iterate()
	}
	z := d.Assignments()
	want := make([]int32, cfg.K)
	for _, zd := range z {
		for _, k := range zd {
			want[k]++
		}
	}
	got := d.GlobalCounts()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ck[%d] = %d, want %d", k, got[k], want[k])
		}
	}
}

func TestDistributedAssignmentsShape(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	d, err := NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Iterate()
	z := d.Assignments()
	if len(z) != len(c.Docs) {
		t.Fatal("wrong doc count")
	}
	for di := range z {
		if len(z[di]) != len(c.Docs[di]) {
			t.Fatalf("doc %d: %d topics for %d tokens", di, len(z[di]), len(c.Docs[di]))
		}
		for _, k := range z[di] {
			if k < 0 || int(k) >= cfg.K {
				t.Fatalf("topic %d out of range", k)
			}
		}
	}
}

// The sharded implementation must match the shared-memory sampler's
// converged quality (they are the same algorithm).
func TestDistributedMatchesSharedMemoryQuality(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	d, err := NewDistributed(c, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		d.Iterate()
		w.Iterate()
	}
	llD := eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	llW := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	diff := llD - llW
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.03*abs(llW) {
		t.Fatalf("sharded LL %.1f differs from shared-memory %.1f by more than 3%%", llD, llW)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestDistributedSingleWorker(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	d, err := NewDistributed(c, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 10; i++ {
		d.Iterate()
	}
	after := eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatal("single-worker sharded run did not converge")
	}
}

func TestDistributedRejectsBadInput(t *testing.T) {
	c := simCorpus()
	if _, err := NewDistributed(c, sampler.Config{}, 2); err == nil {
		t.Error("invalid config accepted")
	}
	cfg := sampler.PaperDefaults(4)
	if _, err := NewDistributed(c, cfg, 0); err == nil {
		t.Error("0 workers accepted")
	}
	cfg.M = 0
	if _, err := NewDistributed(c, cfg, 2); err == nil {
		t.Error("M=0 accepted")
	}
}

// The layout of a slab: each key's tokens contiguous and in key order,
// within a key by sender, each sender's in emission order, whatever way
// the senders' tokens interleave — each written once, at its final
// offset. A foreign key, a sender out of range and an overfilled region
// are refused and write nothing; a region left unfilled fails Full.
func TestNextLaysOutByKeyAndSender(t *testing.T) {
	// Documents 0, 2, 3, 5 belong to worker 1 (ranks 0..3); 1 and 4 to 0.
	// Word 0 belongs to worker 0, word 1 to worker 1.
	rows, cols := []int32{1, 0, 1, 1, 0, 1}, []int32{0, 1}
	docs := [][]int32{{0, 1, 1}, {0}, {1}, {0, 0, 1}, {1}, {0, 1}}
	top := NewTopology(rows, cols, 2, docs)
	words, docCounts := top.Counts(1)
	if want := []int32{1, 2, 0, 1, 2, 1, 1, 1}; !reflect.DeepEqual(docCounts, want) {
		t.Fatalf("doc-phase counts of worker 1 %v, want %v", docCounts, want)
	}
	slot, err := NewSlotTopology(rows, cols, 2, 1, words, docCounts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slot.lay[1][1], top.lay[1][1]) || !reflect.DeepEqual(slot.lay[0][1], top.lay[0][1]) {
		t.Fatal("the layout rebuilt from its counts differs")
	}

	// The word phase's tokens bound for worker 1, each sender's in
	// emission order; the payload names the token.
	tok := func(d, w, id int32) Slab { return Slab{D: []int32{d}, W: []int32{w}, Data: []int32{id}} }
	from0 := []Slab{tok(0, 0, 10), tok(3, 0, 11), tok(5, 0, 12), tok(3, 0, 13)}
	from1 := []Slab{tok(0, 1, 20), tok(2, 1, 21), tok(0, 1, 22), tok(3, 1, 23), tok(5, 1, 24)}
	want := Slab{
		D:    []int32{0, 0, 0, 2, 3, 3, 3, 5, 5},
		W:    []int32{0, 1, 1, 1, 0, 0, 1, 0, 1},
		Data: []int32{10, 20, 22, 21, 11, 13, 23, 12, 24},
	}
	for _, order := range [][]int{{0, 0, 0, 0, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 0, 0, 0, 0}, {1, 0, 1, 0, 1, 0, 1, 0, 1}} {
		var n Next
		n.Reset(top, 1, 1, 1)
		next := [2]int{}
		for _, s := range order {
			if err := n.Full(); err == nil {
				t.Fatal("a slab with regions left unfilled is full")
			}
			src := [2][]Slab{from0, from1}[s][next[s]]
			next[s]++
			if _, err := n.Put(s, &src, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Full(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(n.Slab, want) {
			t.Fatalf("senders in order %v: slab %+v, want %+v", order, n.Slab, want)
		}
		for _, bad := range []struct {
			name string
			from int
			tok  Slab
		}{
			{"foreign key", 0, tok(1, 0, 99)},
			{"sender out of range", 2, tok(0, 0, 99)},
			{"overfilled region", 1, tok(2, 1, 99)},
		} {
			if _, err := n.Put(bad.from, &bad.tok, 0); err == nil {
				t.Fatalf("%s accepted", bad.name)
			}
			if !reflect.DeepEqual(n.Slab, want) {
				t.Fatalf("%s written into the slab", bad.name)
			}
		}
	}

	for _, bad := range []struct {
		name  string
		words []int32
		docs  []int32
		max   int
	}{
		{"wrong length", words, docCounts[1:], 100},
		{"negative count", words, []int32{1, 2, 0, 1, 2, 1, 1, -1}, 100},
		{"counts past the token bound", words, docCounts, 8},
	} {
		if _, err := NewSlotTopology(rows, cols, 2, 1, bad.words, bad.docs, bad.max); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

// A corrupt or mismatched shard set must be refused: shards of one save
// mixed with shards of a save under another worker count, a sampler
// with a different M, and a shard cut short anywhere in its stream.
func TestDistributedRestoreRejectsCorruptState(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 1
	mk := func(cfg sampler.Config, p int) *Distributed {
		d, err := NewDistributed(c, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d2, d3 := mk(cfg, 2), mk(cfg, 3)
	d2.Iterate()
	d3.Iterate()
	blobs2, blobs3 := shardBlobs(t, d2), shardBlobs(t, d3)

	// Worker-count mismatch: shard 1 was written under 3 workers.
	mixed := []*bytes.Buffer{blobs2[0], blobs3[1]}
	if err := mk(cfg, 2).RestoreShards(1, readers(mixed)); err == nil {
		t.Error("shards from saves with different worker counts accepted")
	}
	// Wrong M.
	cfg2 := cfg
	cfg2.M = 2
	if err := mk(cfg2, 2).RestoreShards(1, readers(blobs2)); err == nil {
		t.Error("M mismatch accepted")
	}
	// Truncated, at the start, inside the header, mid-body and by one byte.
	full := blobs2[1].Bytes()
	for _, n := range []int{0, 5, len(full) / 2, len(full) - 1} {
		cut := bytes.NewBuffer(full[:n])
		if err := mk(cfg, 2).RestoreShards(1, readers([]*bytes.Buffer{blobs2[0], cut})); err == nil {
			t.Errorf("shard truncated to %d of %d bytes accepted", n, len(full))
		}
	}
}

// The in-process exchange copies by an index built once from the initial
// layout (routes), which is right only while every slab holds the cells
// of that layout at the same offsets. Cells at fixed offsets follow from
// each (key, sender) region listing its tokens by the other coordinate
// — documents ascending in a word's region, words in a document's — so
// that must hold after every phase, and after restoring shards of this
// sampler at the same or another worker count, or of core.Warp.
func TestSlabsKeepTheirCells(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	mk := func(p int) *Distributed {
		d, err := NewDistributed(c, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	laidOut := func(what string, d *Distributed, ph int) {
		t.Helper()
		for o, sh := range d.shards {
			keys, other, owner, rank, sender := sh.W, sh.D, d.top.Cols, d.top.colRank, d.top.Rows
			if ph == 1 {
				keys, other, owner, rank, sender = sh.D, sh.W, d.top.Rows, d.top.rowRank, d.top.Cols
			}
			at := d.top.lay[ph][o]
			for c := 0; c+1 < len(at); c++ {
				for x := at[c]; x < at[c+1]; x++ {
					key := keys[x]
					if int(owner[key]) != o || int(rank[key]) != c/d.p || int(sender[other[x]]) != c%d.p ||
						x > at[c] && other[x] < other[x-1] {
						t.Fatalf("%s: slab %d, offset %d: cell (%d, %d) out of its place", what, o, x, sh.D[x], sh.W[x])
					}
				}
			}
		}
	}
	warp, err := core.New(c, sampler.Config{K: cfg.K, Alpha: cfg.Alpha, Beta: cfg.Beta, M: cfg.M, Seed: 5, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	warp.Iterate()
	other := mk(2)
	other.Iterate()
	for _, p := range []int{1, 3} {
		d := mk(p)
		laidOut(fmt.Sprintf("p=%d, initial", p), d, 0)
		for i := 0; i < 3; i++ {
			d.pass.Freeze(d.ck)
			for ph := 0; ph < 2; ph++ {
				d.exchange(ph)
				laidOut(fmt.Sprintf("p=%d, pass %d, phase %d", p, i, ph), d, 1-ph)
			}
		}
		for _, src := range []sampler.Sharded{d, other, warp} {
			bufs := make([]*bytes.Buffer, src.NumShards())
			for i := range bufs {
				bufs[i] = &bytes.Buffer{}
				if err := src.ShardTo(i, bufs[i]); err != nil {
					t.Fatal(err)
				}
			}
			dst := mk(p)
			if err := dst.RestoreShards(1, readers(bufs)); err != nil {
				t.Fatal(err)
			}
			laidOut(fmt.Sprintf("p=%d, restored from %d shards of %s", p, src.NumShards(), src.Name()), dst, 0)
		}
	}
}
