// The per-token kernels: every phase, serial, threaded, staged or
// sharded, is a sequence of calls to chain ("finish the pending MH chains
// of these entries") and to one of the two draw routines ("draw M fresh
// proposals for these entries"). They work on concrete data — the
// matrix's payload array, a row's entry-index slice, a countRow held by
// value, a copy of the generator — so the token loops contain no
// interface call, no per-entry view construction and no division.
//
// A run of entries is (data, idx): with idx nil, the entries are the
// contiguous payloads data[i*stride:(i+1)*stride] of a column or a
// heavy-column segment; otherwise entry i is data[idx[i]*stride:], the
// PCSR indirection of a row into the whole payload array, or of a word's
// or document's group into a Section 5.3 worker's token slab.
//
// WordRun and DocRun are the two phase runs — count, chain, table, draw
// for one word's or one document's entries — over a Pass (the frozen
// priors and C_k + β̄) and a Worker (one goroutine's scratch). Warp's
// wordColumn and docRow call them, and so does internal/cluster's phase
// driver; the staged heavy path (heavy.go) calls the kernels directly.
package core

import (
	"math"

	"warplda/internal/alias"
	"warplda/internal/rng"
	"warplda/internal/sampler"
)

// countRow is the topic-count vector of the row or column being
// visited (c_d or c_w): a direct-indexed array of K counts and the list
// of topics touched since the last reset, at every K. The list is what
// the paper's Section 5.4 hash table is for — clearing costs O(topics
// touched) and the support comes out in O(K_w) for the sparse alias
// build — without probe loops in the token loops; an MH step reads
// C_k + β̄ and the prior at two random topics anyway, so the randomly
// accessed scope is O(K) with either (docs/PERFORMANCE.md has the
// sweep over K that decided it). The kernels take a countRow apart into
// locals, because gc keeps a struct of this size in memory and copies
// it per method call.
type countRow struct {
	c       []int32 // counts by topic
	touched []int32 // topics with c[k] > 0 in first-touch order; cap K+1, see tally
}

func newCountRow(k int) countRow {
	return countRow{c: make([]int32, k), touched: make([]int32, 0, k+1)}
}

// tally adds one to c[z], where touched[:nt] lists the topics counted
// so far, and returns the new nt. z is stored past the end of the list
// first and kept only if it is new, which turns an unpredictable branch
// into a conditional increment; the list never holds more than K
// topics, so with capacity K+1 the store is always in range.
func tally(c, touched []int32, nt int, z int32) int {
	touched[nt] = z
	if c[z] == 0 {
		nt++
	}
	c[z]++
	return nt
}

// reset empties the row in O(topics touched).
func (r *countRow) reset() {
	for _, t := range r.touched {
		r.c[t] = 0
	}
	r.touched = r.touched[:0]
}

// appendNonZero appends the row's support to topics and the matching
// counts to weights, the input of a sparse alias build.
func (r countRow) appendNonZero(topics []int32, weights []float64) ([]int32, []float64) {
	for _, k := range r.touched {
		topics = append(topics, k)
		weights = append(weights, float64(r.c[k]))
	}
	return topics, weights
}

// entries returns the number of entries in the run (data, idx).
func entries(data, idx []int32, stride int) int {
	if idx != nil {
		return len(idx)
	}
	return len(data) / stride
}

// entryAt returns the index into data/stride of the run's i-th entry.
func entryAt(idx []int32, i int) int {
	if idx != nil {
		return int(idx[i])
	}
	return i
}

// count adds the current assignment of every entry of a run to row.
func count(data, idx []int32, stride int, row *countRow) {
	c := row.c
	touched, nt := row.touched[:cap(row.touched)], len(row.touched)
	for i, n := 0, entries(data, idx, stride); i < n; i++ {
		nt = tally(c, touched, nt, data[entryAt(idx, i)*stride])
	}
	row.touched = touched[:nt]
}

// smoothTopic is the outcome a proposal table reserves for "draw from
// the smoothing part of the mixture instead" (uniform, or α-weighted).
const smoothTopic = -1

// chain finishes the MH chains of a run of entries: for each entry it
// walks the M pending proposals from the current assignment s, moving
// to proposal t with the acceptance rate of Eq. 7,
//
//	π = (C_xt + prior_t)(C_s + β̄) / ((C_xs + prior_s)(C_t + β̄)),
//
// where cur holds the frozen C_x of the visited row or column and
// ckb[k] = C_k + β̄. Every step reads one generator word u and takes t
// iff u·den ≤ num (rng.AcceptMask), a proposal equal to the state
// included, where it changes nothing. The accept/reject decision is a
// mask that selects the next state (s and the bits of C_xs + prior_s)
// and the statistics, so the loop has no data-dependent branch: each
// decision is a coin toss the predictor would miss. The resulting
// assignment is stored and counted into next (the recount of a column,
// or a plain count lane). It returns the number of proposals that
// differed from the state they were offered to, and how many of those
// were accepted.
func chain(data, idx []int32, stride int, cur countRow, next *countRow, prior, ckb []float64, r *rng.RNG) (proposed, accepted int) {
	g := *r // the generator state stays in registers over the loop
	cc, nc := cur.c, next.c
	prior, ckb = prior[:len(cc)], ckb[:len(cc)] // one bounds check per topic read
	touched, nt := next.touched[:cap(next.touched)], len(next.touched)
	for i, n := 0, entries(data, idx, stride); i < n; i++ {
		p := entryAt(idx, i)
		e := data[p*stride : (p+1)*stride]
		s := e[0]
		cs := math.Float64bits(float64(cc[s]) + prior[s])
		var st uint64 // the entry's moves (high half) and acceptances (low half)
		for _, t := range e[1:] {
			ct := float64(cc[t]) + prior[t]
			take := rng.AcceptMask(g.Uint64(), ct*ckb[s], math.Float64frombits(cs)*ckb[t])
			moved := uint64(differs(s, t))
			st += moved<<32 | moved&take
			s ^= (s ^ t) & int32(take)
			cs ^= (cs ^ math.Float64bits(ct)) & take
		}
		proposed += int(st >> 32)
		accepted += int(uint32(st))
		e[0] = s
		nt = tally(nc, touched, nt, s)
	}
	*r, next.touched = g, touched[:nt]
	return proposed, accepted
}

// differs is 1 when a ≠ b and 0 otherwise, computed without a branch.
func differs(a, b int32) int {
	d := uint32(a ^ b)
	return int((d | -d) >> 31)
}

// drawAlias overwrites the M proposals of every entry with draws from
// tab, one generator word each. Where tab yields smoothTopic the
// proposal comes from the smoothing part instead: smooth if non-nil,
// else uniform over k topics.
func drawAlias(data, idx []int32, stride int, tab, smooth alias.Packed, k int, r *rng.RNG) {
	g := *r
	for i, n := 0, entries(data, idx, stride); i < n; i++ {
		p := entryAt(idx, i)
		e := data[p*stride+1 : (p+1)*stride]
		for j := range e {
			t := tab.Draw(g.Uint64())
			if t == smoothTopic {
				t = drawSmooth(g.Uint64(), smooth, k)
			}
			e[j] = t
		}
	}
	*r = g
}

// drawSmooth draws from the smoothing part of a proposal with the
// word x: the alias table over α when there is one, else uniform.
func drawSmooth(x uint64, smooth alias.Packed, k int) int32 {
	if smooth != nil {
		return smooth.Draw(x)
	}
	return int32((x >> 32) * uint64(k) >> 32)
}

// drawPositions overwrites the M proposals of every entry of a row with
// draws from q^doc ∝ C_dk + α_k by random positioning (Section 4.3): one
// generator word per proposal, whose high half is the mixture coin —
// with probability pCount = L_d/(L_d + ᾱ) copy the assignment of a
// uniformly chosen token of the row — and whose low half is that
// token's position, or the uniform topic of the smoothing part. With a
// symmetric α the coin selects between the positioned token's topic and
// the uniform topic, both computed from the low half (the position is
// always in range), so the loop has no data-dependent branch. An
// asymmetric α's smoothing part is an alias draw on a second word, which
// only the coin's losers pay; that loop keeps its branch.
func drawPositions(data, idx []int32, stride int, pCount float64, smooth alias.Packed, k int, r *rng.RNG) {
	g := *r
	coin := uint64(pCount * (1 << 32))
	ld, uk := uint64(len(idx)), uint64(k)
	if smooth != nil {
		for _, p := range idx {
			e := data[int(p)*stride+1 : (int(p)+1)*stride]
			for j := range e {
				x := g.Uint64()
				if x>>32 < coin {
					e[j] = data[int(idx[(x&(1<<32-1))*ld>>32])*stride]
				} else {
					e[j] = smooth.Draw(g.Uint64())
				}
			}
		}
		*r = g
		return
	}
	for _, p := range idx {
		e := data[int(p)*stride+1 : (int(p)+1)*stride]
		for j := range e {
			x := g.Uint64()
			lo := x & (1<<32 - 1)
			t := int32(lo * uk >> 32)
			// The coin as a mask: all ones iff x>>32 < coin.
			e[j] = t ^ (t^data[int(idx[lo*ld>>32])*stride])&int32(int64(x>>32-coin)>>63)
		}
	}
	*r = g
}

// Pass is what every phase run of one pass reads and none writes: the
// priors of the two acceptance rates and proposal distributions, and
// C_k + β̄, which only Freeze changes (once per pass, at the merge).
type Pass struct {
	k                       int
	beta, betaBar, alphaBar float64
	betas, alphas           []float64    // per-topic priors of the word and the doc phase
	alphaTab                alias.Packed // q^doc smoothing part for asymmetric α (nil = uniform)
	ckb                     []float64    // C_k + β̄
	denseAlias, docAlias    bool         // the proposal-table ablations of Options
}

// NewPass builds the pass context of cfg over a vocabulary of v words,
// honouring cfg.AlphaVec. Freeze must set C_k before the first run.
func NewPass(cfg sampler.Config, v int) *Pass {
	p := &Pass{
		k:        cfg.K,
		beta:     cfg.Beta,
		alphaBar: cfg.AlphaBar(),
		betaBar:  cfg.Beta * float64(v),
		betas:    make([]float64, cfg.K),
		alphas:   cfg.Alphas(),
		ckb:      make([]float64, cfg.K),
	}
	if cfg.AlphaVec != nil {
		p.alphaTab = alias.New(cfg.AlphaVec).Pack(nil, nil)
	}
	for k := range p.betas {
		p.betas[k] = cfg.Beta
	}
	return p
}

// Freeze sets the global topic counts C_k the coming pass reads.
func (p *Pass) Freeze(ck []int32) {
	for k, c := range ck {
		p.ckb[k] = float64(c) + p.betaBar
	}
}

// Worker is one goroutine's scratch for phase runs: its generator, the
// counts of the visited word or document and their recount, and the
// proposal table with its build buffers. Only R's state outlives a run.
type Worker struct {
	R       *rng.RNG
	cur     countRow  // c_w or c_d of the column or row being visited
	next    countRow  // its recount after the chains, for the proposal table
	spare   []int32   // touched list of lane rows, which nobody reads
	topics  []int32   // outcomes of the proposal table being built
	weights []float64 // matching weights
	build   alias.Table
	tab     alias.Packed // the proposal table the draws read
}

// NewWorker returns the scratch for k topics drawing from r.
func NewWorker(k int, r *rng.RNG) *Worker {
	return &Worker{R: r, cur: newCountRow(k), next: newCountRow(k), spare: make([]int32, 0, k+1)}
}

// laneRow views a plain K-sized count lane (a C_k contribution lane, a
// heavy column's partial lane) as a countRow, so the kernels can count
// into it.
func (wk *Worker) laneRow(lane []int32) countRow {
	return countRow{c: lane, touched: wk.spare[:0]}
}

// proposalTable builds the alias table over (topics, weights) into dst.
func (wk *Worker) proposalTable(dst alias.Packed, topics []int32, weights []float64) alias.Packed {
	wk.build.Build(weights)
	return wk.build.Pack(dst[:0], topics)
}

// appendSmooth adds the smoothing part of a proposal mixture (mass Kβ
// or ᾱ) to a sparse table's input as the single outcome smoothTopic, so
// that one alias draw decides both the mixture coin and the count part.
func appendSmooth(topics []int32, weights []float64, mass float64) ([]int32, []float64) {
	return append(topics, smoothTopic), append(weights, mass)
}

// WordRun is the word phase of one word, whose entries are the
// non-empty run (data, idx): count c_w, finish the doc-proposal chains
// against it with the word acceptance rate (Eq. 7, π^doc) while
// recounting, then draw M fresh word proposals per entry from
// q^word ∝ C_wk + β of the recount. It returns chain's statistics.
func (p *Pass) WordRun(wk *Worker, data, idx []int32, stride int) (proposed, accepted int) {
	wk.cur.reset()
	wk.next.reset()
	count(data, idx, stride, &wk.cur)
	proposed, accepted = chain(data, idx, stride, wk.cur, &wk.next, p.betas, p.ckb, wk.R)

	topics, weights := wk.topics[:0], wk.weights[:0]
	if p.denseAlias {
		// Ablation: a table over all K topics, O(K) per word.
		for t, c := range wk.next.c {
			topics = append(topics, int32(t))
			weights = append(weights, float64(c)+p.beta)
		}
	} else {
		topics, weights = wk.next.appendNonZero(topics, weights)
		topics, weights = appendSmooth(topics, weights, float64(p.k)*p.beta)
	}
	wk.topics, wk.weights = topics, weights
	wk.tab = wk.proposalTable(wk.tab, topics, weights)
	drawAlias(data, idx, stride, wk.tab, nil, p.k, wk.R)
	return proposed, accepted
}

// DocRun is the doc phase of one document, whose entries are the
// non-empty run (data, idx) with idx not nil (the positioning draw picks
// entries through it): count c_d, finish the word-proposal chains
// against it with the doc acceptance rate (Eq. 7, π^word) while adding
// the new assignments to lane (the caller's C_k contribution), then draw
// M fresh doc proposals per entry from q^doc ∝ C_dk + α_k. It returns
// chain's statistics.
func (p *Pass) DocRun(wk *Worker, data, idx []int32, stride int, lane []int32) (proposed, accepted int) {
	wk.cur.reset()
	count(data, idx, stride, &wk.cur)
	acc := wk.laneRow(lane)
	next := &acc
	if p.docAlias {
		wk.next.reset()
		next = &wk.next
	}
	proposed, accepted = chain(data, idx, stride, wk.cur, next, p.alphas, p.ckb, wk.R)

	if !p.docAlias {
		ld := float64(len(idx))
		drawPositions(data, idx, stride, ld/(ld+p.alphaBar), p.alphaTab, p.k, wk.R)
		return proposed, accepted
	}
	// Ablation: a sparse alias table over the recounted c_d instead of
	// random positioning (Section 4.3 lists both as O(1) options).
	topics, weights := wk.next.appendNonZero(wk.topics[:0], wk.weights[:0])
	for i, t := range topics {
		lane[t] += int32(weights[i])
	}
	wk.topics, wk.weights = appendSmooth(topics, weights, p.alphaBar)
	wk.tab = wk.proposalTable(wk.tab, wk.topics, wk.weights)
	drawAlias(data, idx, stride, wk.tab, p.alphaTab, p.k, wk.R)
	return proposed, accepted
}
