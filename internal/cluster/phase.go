// Shared phase bodies of the Section 5.3 execution model. The
// in-process Distributed sampler (distributed.go) and the live
// multi-process worker (internal/dist) run the SAME sampling code: the
// word-phase and doc-phase group bodies below, over the same Token
// representation, grouped by the same sort. Distributed wires them to
// goroutines and channels; the live worker wires them to the TCP block
// exchange — so the convergence behavior proven by the in-process tests
// carries over to the wire protocol unchanged.
package cluster

import (
	"warplda/internal/alias"
	"warplda/internal/rng"
	"warplda/internal/sampler"
	"warplda/internal/tcount"
)

// PhaseWorker is one worker's scratch state for running phase bodies:
// its RNG stream, the per-group topic counter, alias-table build
// buffers, and the per-pass global-count accumulator. In the in-process
// sampler there are P of these behind channels; in the live mode each
// worker process owns exactly one.
type PhaseWorker struct {
	// R is the worker's RNG stream. It is part of the sampler's
	// checkpointed state: restore sets it, elastic resume re-derives it.
	R *rng.RNG
	// CkAcc accumulates the worker's contribution to the next global
	// topic-count vector during the doc phase; the per-pass allreduce
	// sums it across workers.
	CkAcc []int32

	counter tcount.Counter
	topics  []int32
	weights []float64
	tab     alias.SparseTable
}

// NewPhaseWorker builds a worker's scratch state for k topics with the
// given RNG stream. The group counter is dense for small K and hashed
// beyond 1024 topics; the shared-memory sampler (internal/core) no
// longer makes that choice — its rows are arrays at every K — and this
// path keeps it until it runs core's kernels (ROADMAP item 1).
func NewPhaseWorker(k int, r *rng.RNG) *PhaseWorker {
	wk := &PhaseWorker{R: r, CkAcc: make([]int32, k)}
	if k <= 1024 {
		wk.counter = tcount.NewDense(k)
	} else {
		wk.counter = tcount.NewHash(256)
	}
	return wk
}

// PhaseEnv is the frozen per-pass context a phase body needs beyond the
// worker's own scratch: the hyper-parameters, the vocabulary size, and
// the pass's global topic-count vector (replicated, read-only during
// the pass — the paper's only shared state).
type PhaseEnv struct {
	Cfg sampler.Config
	V   int
	CK  []int32
}

// WordGroup is the word-phase body for one word's tokens: finish the
// doc-proposal chains (π^doc), rebuild c_w, draw M word proposals.
func (e *PhaseEnv) WordGroup(wk *PhaseWorker, group []Token) {
	k := e.Cfg.K
	beta := e.Cfg.Beta
	betaBar := beta * float64(e.V)
	lw := len(group)
	cw := wk.counter
	resetCounter(cw, k, lw)
	for _, t := range group {
		cw.Incr(t.Data[0])
	}
	for _, t := range group {
		s := t.Data[0]
		for j := 1; j < len(t.Data); j++ {
			prop := t.Data[j]
			if prop == s {
				continue
			}
			pi := (float64(cw.Get(prop)) + beta) / (float64(cw.Get(s)) + beta) *
				(float64(e.CK[s]) + betaBar) / (float64(e.CK[prop]) + betaBar)
			if pi >= 1 || wk.R.Float64() < pi {
				s = prop
			}
		}
		t.Data[0] = s
	}
	resetCounter(cw, k, lw)
	for _, t := range group {
		cw.Incr(t.Data[0])
	}
	wk.topics = wk.topics[:0]
	wk.weights = wk.weights[:0]
	cw.NonZero(func(kk, c int32) {
		wk.topics = append(wk.topics, kk)
		wk.weights = append(wk.weights, float64(c))
	})
	wk.tab.Build(wk.topics, wk.weights)
	pCount := float64(lw) / (float64(lw) + float64(k)*beta)
	for _, t := range group {
		for j := 1; j < len(t.Data); j++ {
			if wk.R.Float64() < pCount {
				t.Data[j] = wk.tab.Draw(wk.R)
			} else {
				t.Data[j] = int32(wk.R.Intn(k))
			}
		}
	}
}

// DocGroup is the doc-phase body for one document's tokens: finish the
// word-proposal chains (π^word), draw M doc proposals by positioning,
// accumulate the worker's ck contribution.
func (e *PhaseEnv) DocGroup(wk *PhaseWorker, group []Token) {
	k := e.Cfg.K
	alpha := e.Cfg.Alpha
	betaBar := e.Cfg.Beta * float64(e.V)
	ld := len(group)
	cd := wk.counter
	resetCounter(cd, k, ld)
	for _, t := range group {
		cd.Incr(t.Data[0])
	}
	for _, t := range group {
		s := t.Data[0]
		for j := 1; j < len(t.Data); j++ {
			prop := t.Data[j]
			if prop == s {
				continue
			}
			pi := (float64(cd.Get(prop)) + alpha) / (float64(cd.Get(s)) + alpha) *
				(float64(e.CK[s]) + betaBar) / (float64(e.CK[prop]) + betaBar)
			if pi >= 1 || wk.R.Float64() < pi {
				s = prop
			}
		}
		t.Data[0] = s
	}
	pCount := float64(ld) / (float64(ld) + alpha*float64(k))
	for _, t := range group {
		for j := 1; j < len(t.Data); j++ {
			if wk.R.Float64() < pCount {
				t.Data[j] = group[wk.R.Intn(ld)].Data[0]
			} else {
				t.Data[j] = int32(wk.R.Intn(k))
			}
		}
		wk.CkAcc[t.Data[0]]++
	}
}

// GroupSort sorts tokens by doc (byRow) or word (byCol) with a simple
// in-place quicksort so same-key tokens are contiguous — the grouping
// both phase bodies require of their input.
func GroupSort(ts []Token, byRow bool) {
	key := func(t Token) int32 {
		if byRow {
			return t.D
		}
		return t.W
	}
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 12 {
			pivot := key(ts[(lo+hi)/2])
			i, j := lo, hi
			for i <= j {
				for key(ts[i]) < pivot {
					i++
				}
				for key(ts[j]) > pivot {
					j--
				}
				if i <= j {
					ts[i], ts[j] = ts[j], ts[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j)
				lo = i
			} else {
				qs(i, hi)
				hi = j
			}
		}
		for i := lo + 1; i <= hi; i++ {
			for j := i; j > lo && key(ts[j]) < key(ts[j-1]); j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
	}
	if len(ts) > 1 {
		qs(0, len(ts)-1)
	}
}

// ForGroups calls fn on each maximal run of equal-key tokens (equal doc
// when byRow, equal word otherwise). The input must be GroupSort-ed by
// the same key.
func ForGroups(ts []Token, byRow bool, fn func(group []Token)) {
	key := func(t Token) int32 {
		if byRow {
			return t.D
		}
		return t.W
	}
	for lo := 0; lo < len(ts); {
		hi := lo + 1
		for hi < len(ts) && key(ts[hi]) == key(ts[lo]) {
			hi++
		}
		fn(ts[lo:hi])
		lo = hi
	}
}

// sortByWord sorts the parallel (word, payload) pairs by (word, payload)
// lexicographically — the regroup pass behind Assignments. Ordering by
// the payload too makes the result canonical: a (doc, word) cell with
// duplicate tokens yields its topics in ascending order no matter which
// shards held them, so the regrouped assignment matrix is a pure
// function of the token multiset, not of the topology that produced it.
// Same quicksort shape as GroupSort, over two parallel slices.
func sortByWord(ws, zs []int32) {
	less := func(i, j int) bool {
		return ws[i] < ws[j] || (ws[i] == ws[j] && zs[i] < zs[j])
	}
	lessPair := func(i int, w, z int32) bool {
		return ws[i] < w || (ws[i] == w && zs[i] < z)
	}
	greaterPair := func(i int, w, z int32) bool {
		return ws[i] > w || (ws[i] == w && zs[i] > z)
	}
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 12 {
			pw, pz := ws[(lo+hi)/2], zs[(lo+hi)/2]
			i, j := lo, hi
			for i <= j {
				for lessPair(i, pw, pz) {
					i++
				}
				for greaterPair(j, pw, pz) {
					j--
				}
				if i <= j {
					ws[i], ws[j] = ws[j], ws[i]
					zs[i], zs[j] = zs[j], zs[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j)
				lo = i
			} else {
				qs(i, hi)
				hi = j
			}
		}
		for i := lo + 1; i <= hi; i++ {
			for j := i; j > lo && less(j, j-1); j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
				zs[j], zs[j-1] = zs[j-1], zs[j]
			}
		}
	}
	if len(ws) > 1 {
		qs(0, len(ws)-1)
	}
}
