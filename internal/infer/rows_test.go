package infer

import (
	"math/rand"
	"slices"
	"testing"

	"warplda/internal/fsio"
)

// sparseCounts builds V×K counts with about one cell in density
// nonzero, a word without support and a word supported on every topic,
// and C_k their column sums.
func sparseCounts(r *rand.Rand, v, k, density int) ([]int32, []int64) {
	cw := make([]int32, v*k)
	for i := range cw {
		if r.Intn(density) == 0 {
			cw[i] = int32(r.Intn(50) + 1)
		}
	}
	clear(cw[:k])
	for t := range cw[(v-1)*k:] {
		cw[(v-1)*k+t] = int32(t + 1)
	}
	ck := make([]int64, k)
	for i, c := range cw {
		ck[i%k] += int64(c)
	}
	return cw, ck
}

// Every cell the engine answers is the dense matrix's, every word's
// token total its row sum and every column scan the column's nonzeros,
// at K that fill the rank blocks exactly, leave the last one partial,
// or fit in one.
func TestCountMatchesDenseCounts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 5, 32, 70, 256} {
		const v = 40
		cw, ck := sparseCounts(r, v, k, 4)
		e, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw, Ck: ck}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < v; w++ {
			var tokens int64
			for tt := 0; tt < k; tt++ {
				if got, want := e.Count(w, tt), cw[w*k+tt]; got != want {
					t.Fatalf("K=%d: Count(%d, %d) = %d, want %d", k, w, tt, got, want)
				}
				tokens += int64(cw[w*k+tt])
			}
			if got := e.Tokens(w); got != tokens {
				t.Fatalf("K=%d: Tokens(%d) = %d, want %d", k, w, got, tokens)
			}
		}
		for tt := 0; tt < k; tt++ {
			var got []int32
			e.Column(tt, func(w int, c int32) { got = append(got, int32(w), c) })
			var want []int32
			for w := 0; w < v; w++ {
				if c := cw[w*k+tt]; c > 0 {
					want = append(want, int32(w), c)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d: Column(%d) visits %v, want %v", k, tt, got, want)
			}
		}
	}
}

// Rows built from cells written in chunks of any size, across row
// boundaries or not, make the same engine as one write of the matrix.
func TestRowsWriteInAnyChunking(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	const v, k = 30, 45
	cw, ck := sparseCounts(r, v, k, 5)
	p := Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Ck: ck}
	want, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw, Ck: ck}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, k, k + 1, 3 * k, v * k} {
		rows := NewRows(v, k)
		for off := 0; off < len(cw); off += chunk {
			rows.Write(cw[off:min(off+chunk, len(cw))])
		}
		got, err := rows.Engine(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertEngineIdentical(t, got, want)
	}

	short := NewRows(v, k)
	short.Write(cw[:len(cw)-1])
	if _, err := short.Engine(p, Options{}); err == nil {
		t.Fatal("rows one cell short built an engine")
	}
}

// The rows' fingerprint, which hashes the zeros between nonzero cells
// in runs, is fsio.ModelFingerprint of the dense matrix — before and
// after a fold — so a chain published from dense counts folds into an
// engine that never held them.
func TestFingerprintMatchesModelFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 33, 300} {
		const v = 25
		cw, ck := sparseCounts(r, v, k, 6)
		e, err := NewEngine(Params{V: v, K: k, Alpha: 0.1, Beta: 0.01, Cw: cw, Ck: ck}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.Fingerprint(), fsio.ModelFingerprint(v, k, cw, ck); got != want {
			t.Fatalf("K=%d: Fingerprint() = %016x, ModelFingerprint = %016x", k, got, want)
		}
		nc, nk := perturb(r, v, k, cw, 40)
		folded, _, err := e.ApplyDelta(deltaBetween(v, k, cw, ck, nc, nk, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := folded.Fingerprint(), fsio.ModelFingerprint(v, k, nc, nk); got != want {
			t.Fatalf("K=%d folded: Fingerprint() = %016x, ModelFingerprint = %016x", k, got, want)
		}
	}
}
