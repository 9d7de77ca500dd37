// Staged intra-word parallelism (Section 5.4) for heavy columns.
//
// A column whose term frequency exceeds max(K, 1024) would skew any
// per-worker column partition, so all workers cooperate on it. One
// column at a time would cost a barrier per stage per column and leave
// the count merge to a lead worker; on corpora with thousands of heavy
// words that serial fraction and barrier storm erase the gain of adding
// threads. So:
//
//   - heavy columns are processed in batches, so each barrier is
//     amortized over every column in the batch (four barriers per
//     batch);
//   - each column is cut into L2-sized segments that are greedy-
//     partitioned across workers (sparse.GreedyPartition), so no
//     stage has a serial section: counting, chains and draws all run
//     on all workers;
//   - partial counts live in per-worker cache-line-padded lanes of
//     one backing array, merged by per-column owners — the same
//     false-sharing discipline as the ckAcc delta buffers.
//
// The stages hold no sampling code of their own: a segment is a
// contiguous run of entries, and stages 1, 3 and 4 hand it to the same
// count, chain and drawPositions kernels (kernel.go) that wordColumn
// runs on a whole column, with a lane as the count row. The draws of
// stage 4 position over the whole column, whose assignments are final
// once stage 3 has run, so a segment's proposals follow q^word of the
// column's counts and no stage recounts. Stage 3's chains and stage 4's
// draws of a segment each reseed from (column, the segment's first
// entry, stage), and the segment cut depends on the corpus and M only,
// so which worker runs a segment changes no draw. One thread runs the
// same four stages inline.
//
// The whole schedule is precomputed once at construction and is
// deterministic in (corpus, Config), preserving bit-exact resume.
package core

import "warplda/internal/sparse"

// heavySeg is one contiguous run of a heavy column's CSC entries,
// processed by a single worker during the staged passes.
type heavySeg struct {
	c      int // column index within the batch
	lo, hi int // entry range within the column view
}

// heavyBatch groups heavy columns whose four staged passes run
// together under shared barriers.
type heavyBatch struct {
	cols   []int        // global column ids
	segs   [][]heavySeg // per worker: owned segments, in schedule order
	colsOf [][]int      // per worker: batch-column indices it merges
}

// heavyPlan is the precomputed schedule plus the reusable scratch the
// staged passes run on. Scratch is sized for the largest batch.
type heavyPlan struct {
	batches []heavyBatch

	stride   int     // padded K: lane distance inside partial and merged
	batchCap int     // max columns per batch
	partial  []int32 // threads × batchCap padded lanes of partial counts
	merged   []int32 // batchCap padded lanes of merged c_w

	b *heavyBatch // the batch the stages are running
}

// buildHeavyPlan cuts w.heavyCols into batches and L2-sized segments
// and greedy-assigns both the segments (count/chain/draw work) and the
// columns (merge work) to workers.
func (w *Warp) buildHeavyPlan() *heavyPlan {
	n := len(w.workers)
	stride := ckLaneStride(w.cfg.K)
	// Bound the partial-count scratch: one batch costs
	// (n+1)·batchCap·stride int32 across partial and merged.
	batchCap := max(1, heavyBatchBytes/4/((n+1)*stride))
	batchCap = min(batchCap, len(w.heavyCols))
	segTokens := max(1, l2ChunkBytes/(4*(w.cfg.M+1)))

	p := &heavyPlan{
		stride:   stride,
		batchCap: batchCap,
		partial:  make([]int32, n*batchCap*stride),
		merged:   make([]int32, batchCap*stride),
	}
	for start := 0; start < len(w.heavyCols); start += batchCap {
		end := min(start+batchCap, len(w.heavyCols))
		cols := w.heavyCols[start:end]
		b := heavyBatch{
			cols:   cols,
			segs:   make([][]heavySeg, n),
			colsOf: make([][]int, n),
		}
		var segs []heavySeg
		var segW []int
		colW := make([]int, len(cols))
		for c, col := range cols {
			lw := w.m.Column(col).Len()
			colW[c] = lw
			for lo := 0; lo < lw; lo += segTokens {
				hi := min(lo+segTokens, lw)
				segs = append(segs, heavySeg{c: c, lo: lo, hi: hi})
				segW = append(segW, hi-lo)
			}
		}
		segOwner := sparse.GreedyPartition(segW, n)
		for i, s := range segs {
			o := segOwner.Assign[i]
			b.segs[o] = append(b.segs[o], s)
		}
		colOwner := sparse.GreedyPartition(colW, n)
		for c, col := range cols {
			o := colOwner.Assign[c]
			b.colsOf[o] = append(b.colsOf[o], c)
			w.workers[o].heavyOwn = append(w.workers[o].heavyOwn, col)
		}
		p.batches = append(p.batches, b)
	}
	return p
}

// lane returns worker wi's padded partial-count lane for batch column c.
func (p *heavyPlan) lane(wi, c int) []int32 {
	off := (wi*p.batchCap + c) * p.stride
	return p.partial[off : off+p.stride]
}

// segment returns the payloads of heavy segment s of batch b.
func (w *Warp) segment(b *heavyBatch, s heavySeg) []int32 {
	stride := w.m.Stride
	return w.m.Column(b.cols[s.c]).Payload()[s.lo*stride : s.hi*stride]
}

// heavyPhase executes the word phase for every heavy column: the same
// count, chain, draw kernels as wordColumn, staged so all workers stay
// busy. c_k stays frozen throughout, and each batch column's c_w is
// frozen over its MH chains exactly as in the serial path.
func (w *Warp) heavyPhase() {
	p := w.heavy
	if p == nil {
		return
	}
	for bi := range p.batches {
		p.b = &p.batches[bi]
		w.runPhase((*Warp).heavyCount)
		w.runPhase((*Warp).heavyMerge)
		w.runPhase((*Warp).heavyChains)
		w.runPhase((*Warp).heavyDraws)
	}
}

// heavyCount is stage 1: partial counts of the current assignments.
// Each worker writes only its own padded lanes.
func (w *Warp) heavyCount(wk *worker) {
	p := w.heavy
	zeroLanes(p, wk.i, len(p.b.cols))
	for _, s := range p.b.segs[wk.i] {
		part := wk.laneRow(p.lane(wk.i, s.c))
		count(w.segment(p.b, s), nil, w.m.Stride, &part)
	}
}

// heavyMerge is stage 2: per-column owners sum every worker's partial
// lane into the column's c_w.
func (w *Warp) heavyMerge(wk *worker) {
	p, K := w.heavy, w.cfg.K
	for _, c := range p.b.colsOf[wk.i] {
		m := p.merged[c*p.stride : c*p.stride+K]
		clear(m)
		for wi := range w.workers {
			for t, n := range p.lane(wi, c)[:K] {
				m[t] += n
			}
		}
	}
}

// heavyChains is stage 3: MH chains against the frozen merged counts.
func (w *Warp) heavyChains(wk *worker) {
	p, K := w.heavy, w.cfg.K
	for _, s := range p.b.segs[wk.i] {
		cw := countRow{c: p.merged[s.c*p.stride : s.c*p.stride+K]}
		w.pass.key(&wk.r, streamHeavyChain, uint64(p.b.cols[s.c]), uint64(s.lo))
		proposed, accepted := chain(w.segment(p.b, s), nil, w.m.Stride, cw, nil, w.pass.betas, w.pass.ckb, &wk.r)
		wk.stats.WordProposals += int64(proposed)
		wk.stats.WordAccepts += int64(accepted)
	}
}

// heavyDraws is stage 4: proposal draws for each segment, positioned
// over its whole column, which every worker only reads the assignments
// of here.
func (w *Warp) heavyDraws(wk *worker) {
	p := w.heavy
	for _, s := range p.b.segs[wk.i] {
		col := p.b.cols[s.c]
		w.pass.key(&wk.r, streamHeavyDraw, uint64(col), uint64(s.lo))
		w.pass.wordDraws(w.m.Column(col).Payload(), nil, w.m.Stride, s.lo, s.hi, &wk.r)
	}
}

// zeroLanes clears worker wi's partial lanes for the first cols batch
// columns.
func zeroLanes(p *heavyPlan, wi, cols int) {
	off := wi * p.batchCap * p.stride
	clear(p.partial[off : off+cols*p.stride])
}
