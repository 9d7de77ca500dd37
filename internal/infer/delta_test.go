package infer

import (
	"math/rand"
	"reflect"
	"testing"

	"warplda/internal/fsio"
)

// randomCounts builds a V×K count matrix with column-sum-consistent Ck,
// seeded deterministically.
func randomCounts(r *rand.Rand, v, k int) ([]int32, []int64) {
	cw := make([]int32, v*k)
	ck := make([]int64, k)
	for w := 0; w < v; w++ {
		for t := 0; t < k; t++ {
			if r.Intn(3) == 0 {
				c := int32(r.Intn(20) + 1)
				cw[w*k+t] = c
				ck[t] += int64(c)
			}
		}
	}
	return cw, ck
}

// perturb mutates nMut random cells of a copy of cw (bounded at zero),
// returning the new counts with recomputed Ck — a stand-in for one
// training checkpoint interval.
func perturb(r *rand.Rand, v, k int, cw []int32, nMut int) ([]int32, []int64) {
	nc := append([]int32(nil), cw...)
	for i := 0; i < nMut; i++ {
		idx := r.Intn(v * k)
		d := int32(r.Intn(7) - 3)
		if nc[idx]+d < 0 {
			d = -nc[idx]
		}
		nc[idx] += d
	}
	ck := make([]int64, k)
	for w := 0; w < v; w++ {
		for t := 0; t < k; t++ {
			ck[t] += int64(nc[w*k+t])
		}
	}
	return nc, ck
}

func deltaBetween(v, k int, oldCw []int32, oldCk []int64, newCw []int32, newCk []int64, gen int64) *fsio.ModelDelta {
	d := &fsio.ModelDelta{
		V: v, K: k, Gen: gen,
		BaseFP: fsio.ModelFingerprint(v, k, oldCw, oldCk),
		Iter:   gen * 10, LogLik: -1000 - float64(gen),
		Cells: fsio.DiffCounts(v, k, oldCw, newCw),
		Ck:    newCk,
	}
	d.NewFP = fsio.ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck)
	return d
}

// assertEngineIdentical asserts the two engines are byte-identical in
// every query-visible structure: params, denominators, smoothing table,
// and every per-word alias table. This is strictly stronger than
// comparing inference outputs — identical tables make every future draw
// sequence identical for any (doc, seed, sweeps).
func assertEngineIdentical(t *testing.T, got, want *Engine) {
	t.Helper()
	if !reflect.DeepEqual(got.p, want.p) {
		t.Fatalf("params differ:\n got %+v\nwant %+v", got.p, want.p)
	}
	if !reflect.DeepEqual(got.ckBar, want.ckBar) {
		t.Fatal("ckBar differs")
	}
	if got.zbSmooth != want.zbSmooth {
		t.Fatalf("zbSmooth %v != %v", got.zbSmooth, want.zbSmooth)
	}
	if !reflect.DeepEqual(got.smooth, want.smooth) {
		t.Fatal("smoothing alias table differs")
	}
	if !reflect.DeepEqual(got.words, want.words) {
		for w := range got.words {
			if !reflect.DeepEqual(got.words[w], want.words[w]) {
				t.Fatalf("word %d alias table differs:\n got %+v\nwant %+v", w, got.words[w], want.words[w])
			}
		}
		t.Fatal("word tables differ")
	}
}

func TestApplyDeltaMatchesFreshEngine(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const v, k = 60, 8
	opts := Options{MHSteps: 2, Workers: 1}
	cw0, ck0 := randomCounts(r, v, k)
	base, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw0, Ck: ck0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cw1, ck1 := perturb(r, v, k, cw0, 40)
	d := deltaBetween(v, k, cw0, ck0, cw1, ck1, 1)

	folded, rebuilt, err := base.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	fresh, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw1, Ck: ck1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertEngineIdentical(t, folded, fresh)

	// The fold must actually share: the words without support keep
	// their single smoothing bin.
	if rebuilt >= v {
		t.Fatalf("rebuilt %d/%d words — no sharing happened", rebuilt, v)
	}
	// And rebuilt must match the touched-set definition computed
	// independently: cell-changed ∪ (has support ∧ some C_k changed) —
	// the smoothing mass in a supported word's table sums over all
	// topics, so a moved C_k anywhere makes the table stale.
	ckMoved := !reflect.DeepEqual(ck0, ck1)
	want := 0
	for w := 0; w < v; w++ {
		touched := false
		for tt := 0; tt < k && !touched; tt++ {
			if cw0[w*k+tt] != cw1[w*k+tt] || (ckMoved && cw0[w*k+tt] > 0) {
				touched = true
			}
		}
		if touched {
			want++
		}
	}
	if rebuilt != want {
		t.Fatalf("rebuilt %d words, touched-set definition says %d", rebuilt, want)
	}

	// Inference outputs must agree bit-for-bit (implied by the identity
	// above, asserted end-to-end for good measure).
	docs := [][]int32{{0, 1, 2, 3}, {5, 5, 9, 30, 59}, {}}
	for _, doc := range docs {
		for seed := uint64(0); seed < 3; seed++ {
			a, err := folded.Infer(doc, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Infer(doc, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Infer(%v, seed %d): folded %v != fresh %v", doc, seed, a, b)
			}
		}
	}
}

func TestApplyDeltaChain(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const v, k = 40, 6
	opts := Options{Workers: 1}
	cw, ck := randomCounts(r, v, k)
	eng, err := NewEngine(Params{V: v, K: k, Alpha: 0.2, Beta: 0.05, Cw: cw, Ck: ck}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for gen := int64(1); gen <= 4; gen++ {
		nc, nk := perturb(r, v, k, cw, 25)
		d := deltaBetween(v, k, cw, ck, nc, nk, gen)
		next, _, err := eng.ApplyDelta(d)
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		eng, cw, ck = next, nc, nk
	}
	fresh, err := NewEngine(Params{V: v, K: k, Alpha: 0.2, Beta: 0.05, Cw: cw, Ck: ck}, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertEngineIdentical(t, eng, fresh)
}

func TestApplyDeltaEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const v, k = 20, 4
	cw, ck := randomCounts(r, v, k)
	base, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw, Ck: ck}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := deltaBetween(v, k, cw, ck, cw, ck, 1)
	folded, rebuilt, err := base.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != 0 {
		t.Fatalf("empty delta rebuilt %d words", rebuilt)
	}
	assertEngineIdentical(t, folded, base)
}

func TestApplyDeltaRejectsAndLeavesEngineUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const v, k = 10, 3
	cw, ck := randomCounts(r, v, k)
	base, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw, Ck: ck}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	doc := []int32{0, 1, 2}
	before, err := base.Infer(doc, 5, 7)
	if err != nil {
		t.Fatal(err)
	}

	good := func() *fsio.ModelDelta {
		nc, nk := perturb(rand.New(rand.NewSource(5)), v, k, cw, 6)
		return deltaBetween(v, k, cw, ck, nc, nk, 1)
	}
	cases := []struct {
		name   string
		mutate func(*fsio.ModelDelta)
	}{
		{"dims mismatch", func(d *fsio.ModelDelta) { d.V = v + 1 }},
		{"short Ck", func(d *fsio.ModelDelta) { d.Ck = d.Ck[:k-1] }},
		{"cell out of range", func(d *fsio.ModelDelta) {
			d.Cells = append(d.Cells, fsio.DeltaCell{W: int32(v), T: 0, Add: 1})
		}},
		{"negative result", func(d *fsio.ModelDelta) {
			d.Cells = []fsio.DeltaCell{{W: 0, T: 0, Add: -(cw[0] + 1)}}
		}},
		{"inconsistent Ck", func(d *fsio.ModelDelta) { d.Ck[0]++ }},
		{"negative Ck", func(d *fsio.ModelDelta) {
			d.Ck = append([]int64(nil), d.Ck...)
			d.Ck[0] = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := good()
			tc.mutate(d)
			if ne, _, err := base.ApplyDelta(d); err == nil {
				t.Fatalf("ApplyDelta accepted %s (engine %v)", tc.name, ne != nil)
			}
			after, err := base.Infer(doc, 5, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected delta mutated the engine: %v -> %v", before, after)
			}
		})
	}
}
