// The Section 5.3 worker, shared by the in-process Distributed sampler
// (distributed.go) and the live multi-process worker (internal/dist). A
// worker keeps its shard as one flat Slab. Each phase copies it into key
// order with a stable counting sort over the keys the worker owns, so
// every word's or document's tokens are one contiguous run, as a column
// is in core's CSC matrix, and runs internal/core's phase runs
// (core.Pass.WordRun / DocRun, the kernels of the shared-memory sampler)
// over each run. Worker.Phase is the one phase driver — group, run,
// route, ship in blocks — and the two transports differ only in the ship
// callback: Distributed copies a block into its receiver's window of the
// next slab, the live worker sends it as a Block frame through the
// coordinator.
package cluster

import (
	"fmt"

	"warplda/internal/core"
	"warplda/internal/rng"
)

// Slab is a worker's run of tokens: core's slab, the body of a dshd
// stream.
type Slab = core.Slab

// appendToken appends token i of o to s.
func appendToken(s, o *Slab, i, stride int) {
	s.D = append(s.D, o.D[i])
	s.W = append(s.W, o.W[i])
	s.Data = append(s.Data, o.Data[i*stride:(i+1)*stride]...)
}

// makeSlab returns an empty slab with room for n tokens.
func makeSlab(n, stride int) Slab {
	return Slab{D: make([]int32, 0, n), W: make([]int32, 0, n), Data: make([]int32, 0, n*stride)}
}

// resize sets the slab's length to n tokens, reusing its arrays when
// they are large enough.
func resize(s *Slab, n, stride int) {
	if cap(s.D) < n {
		*s = makeSlab(n, stride)
	}
	s.D, s.W, s.Data = s.D[:n], s.W[:n], s.Data[:n*stride]
}

// Topology is the routing of one worker count: the owner of every
// document (row) and word (column), and each one's rank among the keys
// its owner holds — the dense key range of the counting sort that groups
// a shard, computed once per topology.
type Topology struct {
	Rows, Cols       []int32 // owner of each document / word
	rowRank, colRank []int32
	rowKeys, colKeys []int // keys held per owner
}

// NewTopology ranks the keys of the owner maps rows and cols over p
// workers. The maps are kept, not copied.
func NewTopology(rows, cols []int32, p int) *Topology {
	t := &Topology{Rows: rows, Cols: cols, rowKeys: make([]int, p), colKeys: make([]int, p)}
	t.rowRank = rank(rows, t.rowKeys)
	t.colRank = rank(cols, t.colKeys)
	return t
}

// rank returns each key's position among the keys of its owner, in key
// order, and counts the keys of every owner into n.
func rank(owner []int32, n []int) []int32 {
	r := make([]int32, len(owner))
	for key, o := range owner {
		r[key] = int32(n[o])
		n[o]++
	}
	return r
}

// Worker is one Section 5.3 worker: core's phase-run scratch — whose R
// is the worker's RNG stream, part of the sampler's checkpointed state —
// its contribution to the next global topic counts, and the phase
// driver's grouping and routing scratch.
type Worker struct {
	*core.Worker
	// CkAcc is the histogram of the assignments the last doc phase left
	// behind; the per-pass allreduce sums it across workers.
	CkAcc []int32

	slot, stride int
	grouped      Slab    // the shard, grouped by key
	start        []int32 // group g is grouped's tokens start[g]:start[g+1]
	ident        []int32 // 0, 1, 2, …: see rowIndex
	buckets      []Slab  // per owner: routed tokens not shipped yet
}

// NewWorker returns the worker in slot of p for k topics and m
// proposals per token, drawing from r.
func NewWorker(slot, p, k, m int, r *rng.RNG) *Worker {
	return &Worker{
		Worker:  core.NewWorker(k, r),
		CkAcc:   make([]int32, k),
		slot:    slot,
		stride:  m + 1,
		buckets: make([]Slab, p),
	}
}

// Phase runs one phase over the shard sh. The word phase (word true)
// groups sh by word and routes each finished token to its document's
// owner; the doc phase groups by document, leaves the histogram of the
// new assignments in CkAcc, and routes to the word's owner. A token for
// owner o joins o's bucket, which ship receives whenever it holds
// blockTokens tokens and once more at the end if it is not empty — the
// blocked overlap of Section 5.3.2; ship must be done with the bucket
// when it returns. Phase fails on a token whose key the worker does not
// own, and with the first error of ship.
func (wk *Worker) Phase(pass *core.Pass, top *Topology, sh *Slab, word bool, blockTokens int, ship func(o int, b *Slab) error) error {
	keys, owner, rank, n := sh.D, top.Rows, top.rowRank, top.rowKeys[wk.slot]
	dest := top.Cols
	if word {
		keys, owner, rank, n = sh.W, top.Cols, top.colRank, top.colKeys[wk.slot]
		dest = top.Rows
	} else {
		clear(wk.CkAcc)
	}
	if err := wk.group(sh, keys, owner, rank, n); err != nil {
		return err
	}
	gs, s := &wk.grouped, wk.stride
	route := gs.W
	if word {
		route = gs.D
	}
	for g := 0; g < n; g++ {
		lo, hi := int(wk.start[g]), int(wk.start[g+1])
		if lo == hi {
			continue
		}
		if data := gs.Data[lo*s : hi*s]; word {
			pass.WordRun(wk.Worker, data, nil, s)
		} else {
			pass.DocRun(wk.Worker, data, wk.rowIndex(hi-lo), s, wk.CkAcc)
		}
		for i := lo; i < hi; i++ {
			o := dest[route[i]]
			b := &wk.buckets[o]
			appendToken(b, gs, i, s)
			if b.Len() >= blockTokens {
				if err := ship(int(o), b); err != nil {
					return err
				}
				b.Reset()
			}
		}
	}
	for o := range wk.buckets {
		if b := &wk.buckets[o]; b.Len() > 0 {
			if err := ship(o, b); err != nil {
				return err
			}
			b.Reset()
		}
	}
	return nil
}

// group copies the shard into grouped, ordered by the rank of each
// token's key with a stable counting sort, and sets start to the n
// group offsets.
func (wk *Worker) group(sh *Slab, keys, owner, rank []int32, n int) error {
	if cap(wk.start) < n+1 {
		wk.start = make([]int32, n+1)
	}
	start := wk.start[:n+1]
	clear(start)
	for _, key := range keys {
		if int(owner[key]) != wk.slot {
			return fmt.Errorf("cluster: worker %d holds a token of key %d, owner is %d", wk.slot, key, owner[key])
		}
		start[rank[key]+1]++
	}
	for g := 1; g <= n; g++ {
		start[g] += start[g-1]
	}
	s, gs := wk.stride, &wk.grouped
	resize(gs, len(keys), s)
	for i, key := range keys {
		r := rank[key]
		j := int(start[r])
		start[r]++
		gs.D[j], gs.W[j] = sh.D[i], sh.W[i]
		copy(gs.Data[j*s:(j+1)*s], sh.Data[i*s:(i+1)*s])
	}
	// Placing moved every start[g] to the old start[g+1]; shift back.
	copy(start[1:], start[:n])
	start[0] = 0
	wk.start = start
	return nil
}

// rowIndex returns 0, 1, …, n-1: a group's entries as the row index
// through which DocRun's positioning draw picks a token.
func (wk *Worker) rowIndex(n int) []int32 {
	for i := len(wk.ident); i < n; i++ {
		wk.ident = append(wk.ident, int32(i))
	}
	return wk.ident[:n]
}
