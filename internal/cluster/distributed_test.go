package cluster

import (
	"bytes"
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

// The counting sort behind a phase: it must copy every token of a
// worker's shard into the group of its key's rank — each group complete
// and holding one key, the groups in key order, the offsets tiling the
// shard — and keep shard order within a group.
func TestGroupingIsStableAndTiles(t *testing.T) {
	// Documents 0, 2, 3, 5 belong to worker 1 (ranks 0..3); 1 and 4 to 0.
	rows := []int32{1, 0, 1, 1, 0, 1}
	top := NewTopology(rows, []int32{0}, 2)
	sh := Slab{D: []int32{5, 0, 3, 5, 0, 0, 3, 2, 5}, W: make([]int32, 9)}
	for i := range sh.W {
		sh.W[i] = int32(i) // the token's shard position, to check the order
	}
	sh.Data = append([]int32(nil), sh.W...)
	wk := NewWorker(1, 2, 4, 0, nil)
	if err := wk.group(&sh, sh.D, top.Rows, top.rowRank, top.rowKeys[1]); err != nil {
		t.Fatal(err)
	}
	if got, want := wk.start, []int32{0, 3, 4, 6, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group offsets %v, want %v", got, want)
	}
	want := Slab{
		D:    []int32{0, 0, 0, 2, 3, 3, 5, 5, 5},
		W:    []int32{1, 4, 5, 7, 2, 6, 0, 3, 8},
		Data: []int32{1, 4, 5, 7, 2, 6, 0, 3, 8},
	}
	if !reflect.DeepEqual(wk.grouped, want) {
		t.Fatalf("grouped shard %+v, want %+v", wk.grouped, want)
	}
	// A key another worker owns is refused, not grouped.
	foreign := Slab{D: []int32{0, 4}, W: make([]int32, 2), Data: make([]int32, 2)}
	if err := wk.group(&foreign, foreign.D, top.Rows, top.rowRank, top.rowKeys[1]); err == nil {
		t.Fatal("a foreign key was grouped")
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
	if _, err := mk(cfg, 2).RestoreShards(1, "WarpLDA-sharded", readers(mixed)); err == nil {
		t.Error("shards from saves with different worker counts accepted")
	}
	// Wrong M.
	cfg2 := cfg
	cfg2.M = 2
	if _, err := mk(cfg2, 2).RestoreShards(1, "WarpLDA-sharded", readers(blobs2)); err == nil {
		t.Error("M mismatch accepted")
	}
	// Truncated, at the start, inside the header, mid-body and by one byte.
	full := blobs2[1].Bytes()
	for _, n := range []int{0, 5, len(full) / 2, len(full) - 1} {
		cut := bytes.NewBuffer(full[:n])
		if _, err := mk(cfg, 2).RestoreShards(1, "WarpLDA-sharded", readers([]*bytes.Buffer{blobs2[0], cut})); err == nil {
			t.Errorf("shard truncated to %d of %d bytes accepted", n, len(full))
		}
	}
}
