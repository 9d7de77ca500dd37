package infer

// Copy-on-write incremental refresh. ApplyDelta folds a WARPDLT delta
// (changed C_wk cells + new C_k vector) into a served engine by
// building a NEW engine whose rows are the old rows with the cells
// merged in, and which copies every untouched word's alias table from
// the old one, so the ongoing requests against the old engine and the
// fold never observe each other. The serve layer swaps the returned
// engine in atomically, exactly like a warm-prefetch reload — the
// request path never pays a cold build, and no V×K array exists on the
// way: the fold costs O(nnz + V·K/32) copies plus the rebuilt tables.
//
// Which words must be rebuilt is subtler than "words with changed
// cells": a word's table weighs its support C_wk/(C_k+β̄) against the
// smoothing mass Σ_k β/(C_k+β̄), so it is stale whenever ANY topic
// changed its global count C_k — which continued training always does.
// Only a word without support is exempt: its table is the single
// smoothTopic bin whatever that mass is. Byte-identical equivalence with
// a freshly built engine (the property the equivalence suite enforces)
// therefore requires rebuilding
//
//	touched(w) ⇔ some cell (w,·) changed ∨ (some C_k changed ∧ ∃k: C_wk > 0)
//
// and copying the rest. Untouched words see bit-identical inputs to the
// table build, and the build is deterministic, so the copied table IS
// the fresh table. The shared smoothing table and C_k+β̄ row are
// rebuilt unconditionally (O(K), trivial).

import (
	"fmt"

	"warplda/internal/fsio"
)

// ApplyDelta returns a new engine with d folded in, plus the number of
// per-word alias tables it had to rebuild. The receiver is not
// modified and remains fully usable; on error it is untouched and the
// returned engine is nil. The new engine inherits the receiver's
// MHSteps/Workers options and starts with fresh serving counters.
//
// d must target this engine's state: matching dims, in-range cells in
// ascending (w, t) order, non-negative folded counts, and a new C_k
// consistent with the cell adds per topic. Chain-level checks
// (fingerprints, generation contiguity) are the caller's job — the
// registry validates the chain before folding.
func (e *Engine) ApplyDelta(d *fsio.ModelDelta) (*Engine, int, error) {
	p := e.p
	if d.V != p.V || d.K != p.K {
		return nil, 0, fmt.Errorf("infer: delta dims %d×%d against a %d×%d engine", d.V, d.K, p.V, p.K)
	}
	if len(d.Ck) != p.K {
		return nil, 0, fmt.Errorf("infer: delta has %d topic counts, want %d", len(d.Ck), p.K)
	}

	// Check the cells, and sum the adds per topic so the redundant C_k
	// vector can be cross-checked.
	sumAdds := make([]int64, p.K)
	for i, c := range d.Cells {
		if c.W < 0 || int(c.W) >= p.V || c.T < 0 || int(c.T) >= p.K {
			return nil, 0, fmt.Errorf("infer: delta cell %d = (%d,%d) outside %d×%d", i, c.W, c.T, p.V, p.K)
		}
		if i > 0 && (c.W < d.Cells[i-1].W || c.W == d.Cells[i-1].W && c.T <= d.Cells[i-1].T) {
			return nil, 0, fmt.Errorf("infer: delta cells not in ascending (w,t) order at %d", i)
		}
		sumAdds[c.T] += int64(c.Add)
	}
	newCk := make([]int64, p.K)
	copy(newCk, d.Ck)
	ckChanged := false
	for k := 0; k < p.K; k++ {
		if newCk[k] < 0 {
			return nil, 0, fmt.Errorf("infer: delta topic count Ck[%d] = %d, want >= 0", k, newCk[k])
		}
		if newCk[k] != p.Ck[k]+sumAdds[k] {
			return nil, 0, fmt.Errorf("infer: delta Ck[%d] = %d inconsistent with cell adds (%d%+d)", k, newCk[k], p.Ck[k], sumAdds[k])
		}
		ckChanged = ckChanged || newCk[k] != p.Ck[k]
	}

	// Merge each word's cells into its row. A word keeps its table when
	// no cell touches it and either no C_k moved or it has no support.
	rows := &Rows{v: p.V, k: p.K, start: make([]int, 1, p.V+1),
		ents: make([]uint64, 0, len(e.bins)), rank: make([]uint64, 0, len(e.rank))}
	keep := make([]bool, p.V)
	var support, merged []uint64
	cells := d.Cells
	for w := 0; w < p.V; w++ {
		support = support[:0]
		for _, b := range e.bins[e.start[w] : e.start[w+1]-1] {
			support = append(support, b.hit)
		}
		n := 0
		for n < len(cells) && int(cells[n].W) == w {
			n++
		}
		if n == 0 {
			keep[w] = !ckChanged || len(support) == 0
			rows.appendRow(support)
			continue
		}
		var err error
		if merged, err = merge(merged[:0], support, cells[:n]); err != nil {
			return nil, 0, err
		}
		rows.appendRow(merged)
		cells = cells[n:]
	}

	ne := &Engine{
		p:       Params{V: p.V, K: p.K, Alpha: p.Alpha, Beta: p.Beta, Ck: newCk},
		bins:    make([]bin, len(rows.ents)),
		mh:      e.mh,
		workers: e.workers,
	}
	for w, kept := range keep {
		if kept {
			copy(ne.bins[rows.start[w]:rows.start[w+1]], e.bins[e.start[w]:e.start[w+1]])
		}
	}
	return ne, ne.build(rows, keep), nil
}

// merge appends to dst the support of a word whose old support is old
// and whose changed cells, in topic order, are cells: the sum where
// both have a topic, without the topics whose count falls to zero.
func merge(dst, old []uint64, cells []fsio.DeltaCell) ([]uint64, error) {
	for _, c := range cells {
		for len(old) > 0 && int32(old[0]) < c.T {
			dst, old = append(dst, old[0]), old[1:]
		}
		var was int32
		if len(old) > 0 && int32(old[0]) == c.T {
			was, old = int32(old[0]>>32), old[1:]
		}
		nv := was + c.Add
		if nv < 0 {
			return nil, fmt.Errorf("infer: delta cell (%d,%d) drives C[%d,%d] negative (%d%+d)", c.W, c.T, c.W, c.T, was, c.Add)
		}
		if nv > 0 {
			dst = append(dst, entry(c.T, nv))
		}
	}
	return append(dst, old...), nil
}
