// Staged intra-word parallelism (Section 5.4) for heavy columns.
//
// A column whose term frequency exceeds max(K, 1024) would skew any
// per-worker column partition, so all workers cooperate on it. One
// column at a time would cost two barriers per column and leave the
// counting and the alias build to a lead worker; on corpora with
// thousands of heavy words that serial fraction and barrier storm
// erase the gain of adding threads. So:
//
//   - heavy columns are processed in batches, so each barrier is
//     amortized over every column in the batch (five barriers per
//     batch);
//   - each column is cut into L2-sized segments that are greedy-
//     partitioned across workers (sparse.GreedyPartition), so no
//     stage has a serial section: counting, chains with their recount,
//     alias builds, and draws all run on all workers;
//   - partial counts live in per-worker cache-line-padded lanes of
//     one backing array, merged by per-column owners — the same
//     false-sharing discipline as the ckAcc delta buffers.
//
// The stages hold no sampling code of their own: a segment is a
// contiguous run of entries, and stages 1, 3 and 5 hand it to the same
// count, chain and drawAlias kernels (kernel.go) that wordColumn runs
// on a whole column, with a lane as the count row.
//
// The whole schedule is precomputed once at construction and is
// deterministic in (corpus, Config), preserving bit-exact resume.
package core

import (
	"sync"

	"warplda/internal/alias"
	"warplda/internal/sparse"
)

// heavySeg is one contiguous run of a heavy column's CSC entries,
// processed by a single worker during the staged passes.
type heavySeg struct {
	c      int // column index within the batch
	lo, hi int // entry range within the column view
}

// heavyBatch groups heavy columns whose five staged passes run
// together under shared barriers.
type heavyBatch struct {
	cols   []int        // global column ids
	segs   [][]heavySeg // per worker: owned segments, in schedule order
	colsOf [][]int      // per worker: batch-column indices it merges/builds
}

// heavyPlan is the precomputed schedule plus the reusable scratch the
// staged passes run on. Scratch is sized for the largest batch.
type heavyPlan struct {
	batches []heavyBatch

	stride   int     // padded K: lane distance inside partial and merged
	batchCap int     // max columns per batch
	partial  []int32 // threads × batchCap padded lanes of partial counts
	merged   []int32 // batchCap padded lanes of merged c_w

	// Per batch-column proposal samplers, rebuilt each word phase by the
	// column's owner.
	tabs []alias.Packed
}

// buildHeavyPlan cuts w.heavyCols into batches and L2-sized segments
// and greedy-assigns both the segments (chain/draw work) and the
// columns (merge/alias work) to workers.
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
		tabs:     make([]alias.Packed, batchCap),
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

// parallelWorkers runs fn once per worker and waits: the barrier
// primitive between the staged passes.
func (w *Warp) parallelWorkers(fn func(wi int, wk *worker)) {
	var wg sync.WaitGroup
	for i, wk := range w.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			fn(i, wk)
		}(i, wk)
	}
	wg.Wait()
}

// lane returns worker wi's padded partial-count lane for batch column c.
func (p *heavyPlan) lane(wi, c int) []int32 {
	off := (wi*p.batchCap + c) * p.stride
	return p.partial[off : off+p.stride]
}

// mergeInto sums every worker's partial lane for batch column c into
// that column's merged c_w.
func (p *heavyPlan) mergeInto(c, workers, k int) []int32 {
	m := p.merged[c*p.stride : c*p.stride+k]
	clear(m)
	for wi := 0; wi < workers; wi++ {
		part := p.lane(wi, c)
		for t := 0; t < k; t++ {
			m[t] += part[t]
		}
	}
	return m
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
	n := len(w.workers)
	K, stride := w.cfg.K, w.m.Stride

	for bi := range p.batches {
		b := &p.batches[bi]

		// Stage 1: partial counts of the current assignments. Each worker
		// writes only its own padded lanes.
		w.parallelWorkers(func(wi int, wk *worker) {
			zeroLanes(p, wi, len(b.cols))
			for _, s := range b.segs[wi] {
				part := wk.laneRow(p.lane(wi, s.c))
				count(w.segment(b, s), nil, stride, &part)
			}
		})

		// Stage 2: per-column owners merge the lanes into c_w.
		w.parallelWorkers(func(wi int, wk *worker) {
			for _, c := range b.colsOf[wi] {
				p.mergeInto(c, n, K)
			}
		})

		// Stage 3: MH chains against the frozen merged counts, recounting
		// the updated assignments into the partial lanes.
		w.parallelWorkers(func(wi int, wk *worker) {
			zeroLanes(p, wi, len(b.cols))
			for _, s := range b.segs[wi] {
				cw := countRow{c: p.merged[s.c*p.stride : s.c*p.stride+K]}
				part := wk.laneRow(p.lane(wi, s.c))
				proposed, accepted := chain(w.segment(b, s), nil, stride, cw, &part, w.pass.betas, w.pass.ckb, wk.R)
				wk.stats.WordProposals += int64(proposed)
				wk.stats.WordAccepts += int64(accepted)
			}
		})

		// Stage 4: merge again and build each column's proposal sampler
		// q^word ∝ C_wk + β (sparse count part + uniform smoothing part).
		w.parallelWorkers(func(wi int, wk *worker) {
			for _, c := range b.colsOf[wi] {
				m := p.mergeInto(c, n, K)
				topics, weights := wk.topics[:0], wk.weights[:0]
				for t := 0; t < K; t++ {
					if m[t] != 0 {
						topics = append(topics, int32(t))
						weights = append(weights, float64(m[t]))
					}
				}
				wk.topics, wk.weights = appendSmooth(topics, weights, float64(K)*w.cfg.Beta)
				p.tabs[c] = wk.proposalTable(p.tabs[c], wk.topics, wk.weights)
			}
		})

		// Stage 5: proposal draws. The alias tables are read-only here.
		w.parallelWorkers(func(wi int, wk *worker) {
			for _, s := range b.segs[wi] {
				drawAlias(w.segment(b, s), nil, stride, p.tabs[s.c], K, wk.R)
			}
		})
	}
}

// zeroLanes clears worker wi's partial lanes for the first cols batch
// columns.
func zeroLanes(p *heavyPlan, wi, cols int) {
	off := wi * p.batchCap * p.stride
	clear(p.partial[off : off+cols*p.stride])
}
