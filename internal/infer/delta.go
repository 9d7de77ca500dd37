package infer

// Copy-on-write incremental refresh. ApplyDelta folds a WARPDLT delta
// (changed C_wk cells + new C_k vector) into a served engine by
// building a NEW engine that shares every untouched per-word alias
// table with the old one, so the ongoing requests against the old
// engine and the fold never observe each other. The serve layer swaps
// the returned engine in atomically, exactly like a warm-prefetch
// reload — the request path never pays a cold O(V·K) build.
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
// and sharing the rest. Untouched words see bit-identical inputs to the
// table build, and the build is deterministic, so sharing the old table
// IS the fresh table. The shared smoothing table and C_k+β̄ row are
// rebuilt unconditionally (O(K), trivial).

import (
	"fmt"

	"warplda/internal/alias"
	"warplda/internal/fsio"
)

// Counts returns the engine's backing count slices (C_wk row-major by
// word, and C_k). They are the engine's own state: callers must treat
// them as read-only. The serving layer uses them to derive the model
// view of a freshly folded engine without duplicating the matrices.
func (e *Engine) Counts() ([]int32, []int64) { return e.p.Cw, e.p.Ck }

// ApplyDelta returns a new engine with d folded in, plus the number of
// per-word alias tables it had to rebuild. The receiver is not
// modified and remains fully usable; on error it is untouched and the
// returned engine is nil. The new engine inherits the receiver's
// MHSteps/Workers options and starts with fresh serving counters.
//
// d must target this engine's state: matching dims, in-range cells,
// non-negative folded counts, and a new C_k consistent with the cell
// adds per topic. Chain-level checks (fingerprints, generation
// contiguity) are the caller's job — the registry validates the chain
// before folding.
func (e *Engine) ApplyDelta(d *fsio.ModelDelta) (*Engine, int, error) {
	p := e.p
	if d.V != p.V || d.K != p.K {
		return nil, 0, fmt.Errorf("infer: delta dims %d×%d against a %d×%d engine", d.V, d.K, p.V, p.K)
	}
	if len(d.Ck) != p.K {
		return nil, 0, fmt.Errorf("infer: delta has %d topic counts, want %d", len(d.Ck), p.K)
	}

	// Fold the cells into a private copy of C_wk, tracking the per-topic
	// sum of adds so the redundant C_k vector can be cross-checked.
	newCw := make([]int32, len(p.Cw))
	copy(newCw, p.Cw)
	sumAdds := make([]int64, p.K)
	cellTouched := make([]bool, p.V)
	for i, c := range d.Cells {
		if c.W < 0 || int(c.W) >= p.V || c.T < 0 || int(c.T) >= p.K {
			return nil, 0, fmt.Errorf("infer: delta cell %d = (%d,%d) outside %d×%d", i, c.W, c.T, p.V, p.K)
		}
		idx := int(c.W)*p.K + int(c.T)
		nv := newCw[idx] + c.Add
		if nv < 0 {
			return nil, 0, fmt.Errorf("infer: delta cell %d drives C[%d,%d] negative (%d%+d)", i, c.W, c.T, newCw[idx], c.Add)
		}
		newCw[idx] = nv
		sumAdds[c.T] += int64(c.Add)
		cellTouched[c.W] = true
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

	// Share the untouched words' tables (read-only after construction);
	// buildTables builds the rest. A table of one bin has no support.
	words := make([]alias.Packed, p.V)
	for w := range words {
		if !cellTouched[w] && !(ckChanged && len(e.words[w]) > 1) {
			words[w] = e.words[w]
		}
	}
	ne := &Engine{
		p:       Params{V: p.V, K: p.K, Alpha: p.Alpha, Beta: p.Beta, Cw: newCw, Ck: newCk},
		words:   words,
		mh:      e.mh,
		workers: e.workers,
	}
	return ne, ne.buildTables(), nil
}
