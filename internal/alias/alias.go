// Package alias implements Walker's alias method (Walker 1977) for O(1)
// sampling from a discrete distribution after O(K) construction.
//
// WarpLDA and the LightLDA/AliasLDA baselines use alias tables to draw
// from the word proposal q(z=k) ∝ Cwk (+ β). The table is built once per
// word visit and then queried M times per token, so both construction and
// query are on the hot path. The implementation uses the two-stack
// construction and stores the outcome pair per bin in a single struct to
// keep each draw to one cache line.
package alias

import (
	"math"

	"warplda/internal/rng"
)

// Table is an alias table over outcomes 0..K-1. The zero value is an empty
// table; use Build or New to populate it. Tables may be reused across
// Build calls to avoid allocation.
type Table struct {
	// prob[i] is the threshold in [0,1]: with probability prob[i] bin i
	// yields outcome first[i], otherwise outcome second[i].
	prob   []float64
	first  []int32
	second []int32
	// scratch stacks reused across builds.
	small, large []int32
}

// New builds a table for the given unnormalized weights.
func New(weights []float64) *Table {
	t := &Table{}
	t.Build(weights)
	return t
}

// K returns the number of outcomes in the table.
func (t *Table) K() int { return len(t.prob) }

// Build (re)constructs the table from unnormalized weights. Negative
// weights are treated as zero. If all weights are zero the table yields a
// uniform distribution. Build is O(len(weights)) and reuses the table's
// backing storage.
func (t *Table) Build(weights []float64) {
	k := len(weights)
	if k == 0 {
		panic("alias: Build with empty weights")
	}
	t.prob = grow(t.prob, k)
	t.first = growI(t.first, k)
	t.second = growI(t.second, k)
	t.small = t.small[:0]
	t.large = t.large[:0]

	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		// Degenerate: uniform.
		for i := 0; i < k; i++ {
			t.prob[i] = 1
			t.first[i] = int32(i)
			t.second[i] = int32(i)
		}
		return
	}

	// Scale weights so the average bin holds mass exactly 1.
	scale := float64(k) / total
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		p := w * scale
		t.prob[i] = p
		if p < 1 {
			t.small = append(t.small, int32(i))
		} else {
			t.large = append(t.large, int32(i))
		}
	}

	for len(t.small) > 0 && len(t.large) > 0 {
		s := t.small[len(t.small)-1]
		t.small = t.small[:len(t.small)-1]
		l := t.large[len(t.large)-1]

		t.first[s] = s
		t.second[s] = l
		// Bin s is settled; l donates 1-prob[s] mass to it.
		t.prob[l] -= 1 - t.prob[s]
		if t.prob[l] < 1 {
			t.large = t.large[:len(t.large)-1]
			t.small = append(t.small, l)
		}
	}
	// Leftovers are numerically == 1.
	for _, i := range t.large {
		t.prob[i] = 1
		t.first[i] = i
		t.second[i] = i
	}
	for _, i := range t.small {
		t.prob[i] = 1
		t.first[i] = i
		t.second[i] = i
	}
	t.small = t.small[:0]
	t.large = t.large[:0]
}

// Draw samples an outcome in O(1) using two uniform draws from r.
func (t *Table) Draw(r *rng.RNG) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return int(t.first[i])
	}
	return int(t.second[i])
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// SparseTable is an alias table over an explicit outcome set: it samples
// index i with probability ∝ weights[i] and returns outcomes[i]. WarpLDA
// builds these over the non-zero entries of a sparse count row, so K here
// is the number of distinct topics in the row, not the full topic count.
type SparseTable struct {
	inner    Table
	outcomes []int32
}

// Build constructs the sparse table. outcomes and weights must have equal,
// non-zero length. The outcomes slice is copied.
func (s *SparseTable) Build(outcomes []int32, weights []float64) {
	if len(outcomes) != len(weights) {
		panic("alias: outcomes/weights length mismatch")
	}
	s.inner.Build(weights)
	s.outcomes = append(s.outcomes[:0], outcomes...)
}

// K returns the number of outcomes.
func (s *SparseTable) K() int { return len(s.outcomes) }

// Draw samples an outcome in O(1).
func (s *SparseTable) Draw(r *rng.RNG) int32 {
	return s.outcomes[s.inner.Draw(r)]
}

// Packed is an alias table laid out for loops that draw far more often
// than they build: one 16-byte bin carries the threshold and both
// outcomes, so a draw touches one cache line and takes its randomness
// from a single generator word the caller supplies.
type Packed []Bin

// Bin is one alias bin: outcome Hit with probability Prob, else Miss.
type Bin struct {
	Prob      float64
	Hit, Miss int32
}

// Pack appends the table to dst in packed form, naming outcome i
// outcomes[i] (or i itself when outcomes is nil).
func (t *Table) Pack(dst Packed, outcomes []int32) Packed {
	for i, p := range t.prob {
		b := Bin{Prob: p, Hit: t.first[i], Miss: t.second[i]}
		if outcomes != nil {
			b.Hit, b.Miss = outcomes[b.Hit], outcomes[b.Miss]
		}
		dst = append(dst, b)
	}
	return dst
}

// Draw samples an outcome from the word x: the high half selects the
// bin by multiply-shift (bias at most len(p)/2³²), the low half is the
// threshold uniform. Table.Draw and SparseTable.Draw keep their own
// two-call generator consumption, which serving and the baselines'
// reproducible streams depend on. The coin is a coin toss for the
// predictor too, so the outcome is selected by the sign of u − Prob
// (negative iff u < Prob): gc keeps a branch, not a conditional move,
// where the drawn topic goes on to address a load, as in the fold-in
// chain.
func (p Packed) Draw(x uint64) int32 {
	b := p[(x>>32)*uint64(len(p))>>32]
	hit := int32(int64(math.Float64bits(float64(uint32(x))*(1.0/(1<<32))-b.Prob)) >> 63)
	return b.Miss ^ (b.Miss^b.Hit)&hit
}
