package infer

import (
	"fmt"
	"math"
	"math/bits"

	"warplda/internal/alias"
	"warplda/internal/fsio"
)

// The engine's word-topic counts are compact per-word rows, not a V×K
// array; a served model is a few percent nonzero. Word w's row is its
// entries — one per topic of its support (C_wk > 0) in topic order,
// then one for the smoothTopic outcome — and each entry is a 64-bit
// cell, the topic in its low half and C_wk in its high half (0 for
// smoothTopic). The row lives in the word's alias table itself: the
// alias method gives every bin its own outcome, so bin i carries entry
// i, and the entry of its alias as well. A word proposal therefore
// reads its topic and its count from the one bin it draws.
//
// C_wt for any other topic goes through a rank index: per word
// nb = ⌈K/32⌉ 64-bit blocks, block b holding in its low half the
// support bits of topics 32b..32b+31 and in its high half the number
// of support entries below topic 32b. The bin at that number plus the
// popcount of the bits below t carries t's entry when t is in the
// support, and otherwise an entry of a larger topic or the smoothing
// entry; a topic compare masks the count, so the lookup is two loads
// and no branch.
//
// Bytes per word are 8 (start) + 8·nb (rank) + 24 (the smoothing bin),
// and 24 per nonzero (its bin): 96 B per word at K = 256, 1,056 at
// K = 4096.

// entry packs a topic and its count into a row cell.
func entry(topic, count int32) uint64 { return uint64(uint32(topic)) | uint64(count)<<32 }

// bin is one alias bin of a word's table: entry hit with probability
// prob, else entry miss. hit is the row's entry at the bin's index.
type bin struct {
	prob      float64
	hit, miss uint64
}

// table is one word's alias table, which is also its row.
type table []bin

// draw samples an entry from the word x exactly as alias.Packed.Draw
// samples an outcome: the high half selects the bin by multiply-shift,
// the low half is the uniform compared, as a mask, with its threshold.
func (p table) draw(x uint64) uint64 {
	b := &p[(x>>32)*uint64(len(p))>>32]
	hit := uint64(int64(math.Float64bits(float64(uint32(x))*(1.0/(1<<32))-b.prob)) >> 63)
	return b.miss ^ (b.miss^b.hit)&hit
}

// count returns C_wt from word w's table and rank blocks, which start
// at rank[rk], for 0 <= t < K. The topic compare compiles to a
// conditional move: the count goes on to no load address.
func count(tab table, rank []uint64, rk int, t int32) int32 {
	b := rank[rk+int(t>>5)]
	e := tab[int(b>>32)+bits.OnesCount32(uint32(b)&(1<<(t&31)-1))].hit
	c := int32(e >> 32)
	if int32(e) != t {
		c = 0
	}
	return c
}

// countOff is count kept out of line, for the step loop's rare path
// (the smoothing redirect): inlined there, the copy's popcount fallback
// call costs the loop registers; measured, 3–5 % of BenchmarkFoldIn.
//
//go:noinline
func countOff(tab table, rank []uint64, rk int, t int32) int32 { return count(tab, rank, rk, t) }

// Rows accumulates a model's word-topic counts C_wk for an engine.
// Write takes the V·K cells in row-major order, in chunks of any size,
// so a decoder never holds a dense row; Engine then builds an engine
// over the rows. The zero value is not usable; call NewRows.
type Rows struct {
	v, k  int
	col   int      // cells of the open row written so far
	start []int    // start[w]: word w's first entry; one more than the rows closed
	ents  []uint64 // per word: its support in topic order, then the smoothing entry
	rank  []uint64 // per word nb rank blocks
}

// NewRows starts the rows of a V×K model.
func NewRows(v, k int) *Rows {
	return &Rows{v: v, k: k, start: []int{0}}
}

// blocks returns nb, the rank blocks per word.
func (r *Rows) blocks() int { return (r.k + 31) >> 5 }

// Write appends the next cells of C_wk in row-major order. Cells must
// be non-negative (NewEngine and the model decoder check). Storage
// grows with the nonzero cells and the rank blocks written, never with
// a declared size: the offsets and rank blocks double up to their size
// at V rows, so they end exactly that long.
func (r *Rows) Write(cells []int32) {
	nb := r.blocks()
	for len(cells) > 0 {
		n := min(len(cells), r.k-r.col)
		base := r.start[len(r.start)-1]
		for i, c := range cells[:n] {
			t := r.col + i
			if t&31 == 0 {
				r.rank = append(fsio.Grow(r.rank, r.v*nb, 1), uint64(len(r.ents)-base)<<32)
			}
			if c > 0 {
				r.rank[len(r.rank)-1] |= 1 << (t & 31)
				r.ents = append(r.ents, entry(int32(t), c))
			}
		}
		cells = cells[n:]
		if r.col += n; r.col == r.k {
			r.ents = append(r.ents, entry(smoothTopic, 0))
			r.start = append(fsio.Grow(r.start, r.v+1, 1), len(r.ents))
			r.col = 0
		}
	}
}

// appendRow appends a word's row from its support entries in topic
// order.
func (r *Rows) appendRow(support []uint64) {
	at := len(r.rank)
	r.rank = append(r.rank, make([]uint64, r.blocks())...)
	blk := r.rank[at:]
	for _, e := range support {
		t := uint32(e)
		blk[t>>5] |= 1 << (t & 31)
	}
	below := 0
	for b, bits32 := range blk {
		blk[b] |= uint64(below) << 32
		below += bits.OnesCount32(uint32(bits32))
	}
	r.ents = append(append(r.ents, support...), entry(smoothTopic, 0))
	r.start = append(r.start, len(r.ents))
}

// complete checks that r holds its V complete rows.
func (r *Rows) complete() error {
	if r.col != 0 || len(r.start)-1 != r.v {
		return fmt.Errorf("infer: rows hold %d words and %d cells of K=%d, want V=%d complete words",
			len(r.start)-1, r.col, r.k, r.v)
	}
	return nil
}

// pack builds into bins the alias table of every word w but those with
// keep[w], over its entries weighted C_wk/(C_k+β̄) and the smoothing
// entry weighted zbSmooth, and returns the number built.
func (r *Rows) pack(bins []bin, keep []bool, ckBar []float64, zbSmooth float64) (built int) {
	var tab alias.Table
	var weights []float64
	var packed alias.Packed
	for w := 0; w < len(r.start)-1; w++ {
		if keep != nil && keep[w] {
			continue
		}
		built++
		row := r.ents[r.start[w]:r.start[w+1]]
		weights = weights[:0]
		for _, e := range row[:len(row)-1] {
			weights = append(weights, float64(int32(e>>32))/ckBar[int32(e)])
		}
		tab.Build(append(weights, zbSmooth))
		packed = tab.Pack(packed[:0], nil)
		dst := bins[r.start[w]:r.start[w+1]]
		for i, b := range packed {
			dst[i] = bin{prob: b.Prob, hit: row[b.Hit], miss: row[b.Miss]}
		}
	}
	return built
}

// Fingerprint returns fsio.ModelFingerprint of the engine's counts, the
// chain fingerprint a delta against them starts from. It hashes the
// zeros between nonzero cells in runs, so it costs O(nnz + V log K)
// and materializes no row.
func (e *Engine) Fingerprint() uint64 {
	k := e.p.K
	h := fsio.NewModelHasher(e.p.V, k)
	zeros := 0
	for w := 0; w < e.p.V; w++ {
		col := 0
		for _, b := range e.bins[e.start[w] : e.start[w+1]-1] {
			t := int(int32(b.hit))
			h.Zeros(zeros + t - col)
			h.Counts([]int32{int32(b.hit >> 32)})
			zeros, col = 0, t+1
		}
		zeros += k - col
	}
	h.Zeros(zeros)
	return h.Sum(e.p.Ck)
}
