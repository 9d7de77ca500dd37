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

func TestDistributedResumeBitIdenticalSingleWorker(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	mk := func() *Distributed {
		d, err := NewDistributed(c, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	full, half, fresh := mk(), mk(), mk()
	const n = 3
	for i := 0; i < 2*n; i++ {
		full.Iterate()
	}
	for i := 0; i < n; i++ {
		half.Iterate()
	}
	var buf bytes.Buffer
	if err := half.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fresh.Iterate()
	}
	if !reflect.DeepEqual(fresh.GlobalCounts(), full.GlobalCounts()) {
		t.Fatal("single-worker resumed run diverged (global counts)")
	}
	if !reflect.DeepEqual(fresh.Assignments(), full.Assignments()) {
		t.Fatal("single-worker resumed run diverged (assignments)")
	}
}

// With several workers the blocks of the exchange arrive in any order,
// but a receiver lays them out by sender, so the state round-trips
// losslessly and the restored sampler continues bit-identically.
func TestDistributedStateRoundTripMultiWorker(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 2
	d, err := NewDistributed(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Iterate()
	}
	var buf bytes.Buffer
	if err := d.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	wantCk := d.GlobalCounts()
	wantLL := eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)

	fresh, err := NewDistributed(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.GlobalCounts(), wantCk) {
		t.Fatal("restored global counts differ")
	}
	if got := eval.LogJoint(c, fresh.Assignments(), cfg.K, cfg.Alpha, cfg.Beta); got != wantLL {
		t.Fatalf("restored log-likelihood %v, want %v", got, wantLL)
	}
	for i := 0; i < 2; i++ {
		fresh.Iterate()
		d.Iterate()
	}
	if !reflect.DeepEqual(fresh.GlobalCounts(), d.GlobalCounts()) {
		t.Fatal("multi-worker resumed run diverged (global counts)")
	}
	if !reflect.DeepEqual(fresh.Assignments(), d.Assignments()) {
		t.Fatal("multi-worker resumed run diverged (assignments)")
	}
}

func TestDistributedRestoreRejectsCorruptState(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 1
	d, err := NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Iterate()
	var buf bytes.Buffer
	if err := d.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Wrong worker count.
	if d3, err := NewDistributed(c, cfg, 3); err != nil {
		t.Fatal(err)
	} else if err := d3.RestoreFrom(bytes.NewReader(blob)); err == nil {
		t.Error("worker-count mismatch accepted")
	}
	// Wrong M.
	cfg2 := cfg
	cfg2.M = 2
	if dm, err := NewDistributed(c, cfg2, 2); err != nil {
		t.Fatal(err)
	} else if err := dm.RestoreFrom(bytes.NewReader(blob)); err == nil {
		t.Error("M mismatch accepted")
	}
	// Truncated.
	if dt, err := NewDistributed(c, cfg, 2); err != nil {
		t.Fatal(err)
	} else if err := dt.RestoreFrom(bytes.NewReader(blob[:len(blob)-11])); err == nil {
		t.Error("truncated state accepted")
	}
}

func TestSimStateRoundTrip(t *testing.T) {
	c := simCorpus()
	scfg := sampler.PaperDefaults(6)
	scfg.M = 1
	mk := func() *Sim {
		s, err := New(c, scfg, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	full, half, fresh := mk(), mk(), mk()
	const n = 2
	for i := 0; i < 2*n; i++ {
		full.Iterate()
	}
	for i := 0; i < n; i++ {
		half.Iterate()
	}
	var buf bytes.Buffer
	if err := half.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.ModeledSeconds() != half.ModeledSeconds() {
		t.Fatal("modeled time not restored")
	}
	for i := 0; i < n; i++ {
		fresh.Iterate()
	}
	// The wrapped sampler is core.Warp with cfg.Threads workers (1 here):
	// the chain itself must resume bit-identically even though modeled
	// timing differs run to run.
	if !reflect.DeepEqual(fresh.Assignments(), full.Assignments()) {
		t.Fatal("resumed Sim diverged from uninterrupted run")
	}
}

// A state whose per-cell token multiset differs from the corpus must be
// rejected even when every cheaper invariant (ranges, shard ownership,
// totals, ck histogram) still holds.
func TestDistributedRestoreRejectsWrongTokenMultiset(t *testing.T) {
	c := simCorpus()
	cfg := sampler.PaperDefaults(6)
	cfg.M = 1
	d, err := NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Iterate()
	// Duplicate one cell and drop another within the same shard: topics
	// are untouched, so the ck histogram still matches.
	tampered := false
	for _, sh := range d.shards {
		for j := 1; j < sh.Len(); j++ {
			if sh.D[j] != sh.D[0] || sh.W[j] != sh.W[0] {
				sh.D[j], sh.W[j] = sh.D[0], sh.W[0]
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Fatal("could not tamper (degenerate corpus)")
	}
	var buf bytes.Buffer
	if err := d.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreFrom(&buf); err == nil {
		t.Fatal("wrong token multiset accepted")
	}
}
