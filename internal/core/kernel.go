// The per-token kernels: every phase, serial, threaded, staged or
// sharded, is a sequence of calls to count ("count these entries'
// assignments"), chain ("finish the pending MH chains of these entries")
// and drawPositions ("draw M fresh proposals for these entries"). They
// work on concrete data — the matrix's payload array, a row's
// entry-index slice, a countRow held by value, a copy of the generator —
// so the token loops contain no interface call, no per-entry view
// construction and no division.
//
// A run of entries is (data, idx): with idx nil, the entries are the
// contiguous payloads data[i*stride:(i+1)*stride] of a column or a
// heavy-column segment; otherwise entry i is data[idx[i]*stride:], the
// PCSR indirection of a row into the whole payload array, or of a word's
// or document's group into a Section 5.3 worker's token slab.
//
// WordRun and DocRun are the two phase runs — count, chain, draw for
// one word's or one document's entries — over a Pass (the frozen priors
// and C_k + β̄) and a Worker (one goroutine's scratch). Warp's
// wordColumn and docRow call them, and so does internal/cluster's phase
// driver; the staged heavy path (heavy.go) calls the kernels directly.
//
// Every run draws from a generator keyed by what it samples: the run
// of key x in pass i of phase ph reseeds its worker's generator from
// (seed, i, ph, x) before its first draw (Pass.key). Within a pass a
// key's run reads only its own entries, its own counts and the frozen
// C_k, so with keyed draws the state a pass leaves does not depend on
// which worker ran which key, nor in what order.
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
// touched) and the support comes out in O(K_w) for the log joint's
// terms — without probe loops in the token loops; an MH step reads
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
// assignment is stored and, unless next is nil (the word phase, whose
// draws need no count of it), counted into next: a plain count lane, or
// a document's row. It returns the number of proposals that differed
// from the state they were offered to, and how many of those were
// accepted.
func chain(data, idx []int32, stride int, cur countRow, next *countRow, prior, ckb []float64, r *rng.RNG) (proposed, accepted int) {
	g := *r // the generator state stays in registers over the loop
	cc := cur.c
	prior, ckb = prior[:len(cc)], ckb[:len(cc)] // one bounds check per topic read
	var nc, touched []int32
	nt := 0
	if next != nil {
		nc, touched, nt = next.c, next.touched[:cap(next.touched)], len(next.touched)
	}
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
		if nc != nil {
			nt = tally(nc, touched, nt, s)
		}
	}
	*r = g
	if next != nil {
		next.touched = touched[:nt]
	}
	return proposed, accepted
}

// differs is 1 when a ≠ b and 0 otherwise, computed without a branch.
func differs(a, b int32) int {
	d := uint32(a ^ b)
	return int((d | -d) >> 31)
}

// drawPositions overwrites the M proposals of entries lo..hi-1 of the
// run (data, idx) with draws from q ∝ C_k + prior_k, where C_k counts
// the assignments of the whole run, by random positioning (Section 4.3):
// one generator word per proposal, whose high half is the mixture coin —
// with probability pCount = L/(L + prior mass), L the run's length, copy
// the assignment of a uniformly chosen entry of the run — and whose low
// half is that entry's position, or the uniform topic of the smoothing
// part. It serves q^word ∝ C_wk + β over a word's run (a column, or a
// heavy column whose segment is lo..hi-1) and q^doc ∝ C_dk + α_k over a
// row. With a symmetric prior the coin selects between the
// positioned entry's topic and the uniform topic, both computed from the
// low half (the position is always in range), so the loop has no
// data-dependent branch. An α vector's smoothing part, smooth, is an
// alias draw on a second word, which only the coin's losers pay; that
// loop keeps its branch, and needs idx.
func drawPositions(data, idx []int32, stride, lo, hi int, pCount float64, smooth alias.Packed, k int, r *rng.RNG) {
	g := *r
	coin := uint64(pCount * (1 << 32))
	n, uk := uint64(entries(data, idx, stride)), uint64(k)
	switch {
	case smooth != nil:
		for _, p := range idx[lo:hi] {
			e := data[int(p)*stride+1 : (int(p)+1)*stride]
			for j := range e {
				x := g.Uint64()
				if x>>32 < coin {
					e[j] = data[int(idx[(x&(1<<32-1))*n>>32])*stride]
				} else {
					e[j] = smooth.Draw(g.Uint64())
				}
			}
		}
	case idx != nil:
		for _, p := range idx[lo:hi] {
			e := data[int(p)*stride+1 : (int(p)+1)*stride]
			for j := range e {
				x := g.Uint64()
				u := x & (1<<32 - 1)
				t := int32(u * uk >> 32)
				// The coin as a mask: all ones iff x>>32 < coin.
				e[j] = t ^ (t^data[int(idx[u*n>>32])*stride])&int32(int64(x>>32-coin)>>63)
			}
		}
	default:
		for i := lo; i < hi; i++ {
			e := data[i*stride+1 : (i+1)*stride]
			for j := range e {
				x := g.Uint64()
				u := x & (1<<32 - 1)
				t := int32(u * uk >> 32)
				e[j] = t ^ (t^data[int(u*n>>32)*stride])&int32(int64(x>>32-coin)>>63)
			}
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
	seed, iter              uint64       // what every run's draws are keyed by, with its phase and key

	// evalDue makes the pass's doc runs add the doc terms of the log
	// joint to their worker's sum (Evaluate); lj holds the terms' tables,
	// built by the first pass that evaluates.
	evalDue bool
	lj      *logJoint
}

// NewPass builds the pass context of cfg over a vocabulary of v words,
// honouring cfg.AlphaVec, for pass 0 (SetIteration). Freeze must set C_k
// before the first run.
func NewPass(cfg sampler.Config, v int) *Pass {
	p := &Pass{
		k:        cfg.K,
		seed:     cfg.Seed,
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

// Evaluate sets whether the coming pass's doc runs add the doc terms of
// the log joint to their worker's sum, so that the state the pass
// leaves can be evaluated without a pass over the assignments (DocRun,
// WordTerms, TopicTerms). Only a pass after which an evaluation is due
// sets it; the others pay nothing.
func (p *Pass) Evaluate(due bool) {
	if due && p.lj == nil {
		p.lj = newLogJoint(p)
	}
	p.evalDue = due
}

// SetIteration sets the number of the coming pass, the passes completed
// before it, which keys its runs' draws.
func (p *Pass) SetIteration(iter int) { p.iter = uint64(iter) }

// Advance keys the coming runs' draws by the next pass: a sampler calls
// it as a pass ends.
func (p *Pass) Advance() { p.iter++ }

// The streams of a pass's draws: a word's or a document's run, and the
// chains and the draws of a heavy column's segment (heavy.go).
const (
	streamWord = iota
	streamDoc
	streamHeavyChain
	streamHeavyDraw
)

// key reseeds r for the draws of one run of the coming pass: stream's
// run on key, from entry seg of the key (0 but for a heavy segment).
func (p *Pass) key(r *rng.RNG, stream, key, seg uint64) {
	r.Reseed(p.seed, p.iter, stream, key, seg)
}

// wordDraws draws the M word proposals of entries lo..hi-1 of a word's
// whole run (data, idx) from q^word ∝ C_wk + β of the run's assignments,
// a mixture of mass L_w + Kβ.
func (p *Pass) wordDraws(data, idx []int32, stride, lo, hi int, r *rng.RNG) {
	lw := float64(entries(data, idx, stride))
	drawPositions(data, idx, stride, lo, hi, lw/(lw+float64(p.k)*p.beta), nil, p.k, r)
}

// Freeze sets the global topic counts C_k the coming pass reads.
func (p *Pass) Freeze(ck []int32) {
	for k, c := range ck {
		p.ckb[k] = float64(c) + p.betaBar
	}
}

// Worker is one goroutine's scratch for phase runs: its generator, the
// counts of the visited word or document, and the counts of a
// document's new assignments. Nothing outlives a run: each run reseeds
// the generator (Pass.key).
type Worker struct {
	r     rng.RNG
	sum   float64  // log-joint terms added since the last TakeSum
	cur   countRow // c_w or c_d of the column or row being visited
	next  countRow // a document's new assignments, when the pass evaluates
	spare []int32  // touched list of lane rows, which nobody reads
}

// NewWorker returns the scratch for k topics.
func NewWorker(k int) *Worker {
	return &Worker{cur: newCountRow(k), next: newCountRow(k), spare: make([]int32, 0, k+1)}
}

// TakeSum returns the log-joint terms the worker's runs have added since
// the last call, and starts a new sum.
func (wk *Worker) TakeSum() float64 {
	s := wk.sum
	wk.sum = 0
	return s
}

// laneRow views a plain K-sized count lane (a C_k contribution lane, a
// heavy column's partial lane) as a countRow, so the kernels can count
// into it.
func (wk *Worker) laneRow(lane []int32) countRow {
	return countRow{c: lane, touched: wk.spare[:0]}
}

// WordRun is the word phase of word w, whose entries are the non-empty
// run (data, idx): count c_w, finish the doc-proposal chains against it
// with the word acceptance rate (Eq. 7, π^doc), then draw M fresh word
// proposals per entry from q^word ∝ C_wk + β of the new assignments by
// positioning over the run (wordDraws), which needs no count of them. It
// returns chain's statistics.
func (p *Pass) WordRun(wk *Worker, w int, data, idx []int32, stride int) (proposed, accepted int) {
	p.key(&wk.r, streamWord, uint64(w), 0)
	wk.cur.reset()
	count(data, idx, stride, &wk.cur)
	proposed, accepted = chain(data, idx, stride, wk.cur, nil, p.betas, p.ckb, &wk.r)
	p.wordDraws(data, idx, stride, 0, entries(data, idx, stride), &wk.r)
	return proposed, accepted
}

// DocRun is the doc phase of document d, whose entries are the
// non-empty run (data, idx) with idx not nil (the positioning draw picks
// entries through it): count c_d, finish the word-proposal chains
// against it with the doc acceptance rate (Eq. 7, π^word) while adding
// the new assignments to lane (the caller's C_k contribution), then draw
// M fresh doc proposals per entry from q^doc ∝ C_dk + α_k. When the pass
// evaluates, the chains count the new assignments into a row of their
// own instead, which is folded into lane while the document's terms of
// the log joint are added to the worker's sum. It returns chain's
// statistics.
func (p *Pass) DocRun(wk *Worker, d int, data, idx []int32, stride int, lane []int32) (proposed, accepted int) {
	p.key(&wk.r, streamDoc, uint64(d), 0)
	wk.cur.reset()
	count(data, idx, stride, &wk.cur)
	if p.evalDue {
		wk.next.reset()
		proposed, accepted = chain(data, idx, stride, wk.cur, &wk.next, p.alphas, p.ckb, &wk.r)
		wk.sum += p.lj.docTerms(wk.next, lane)
	} else {
		acc := wk.laneRow(lane)
		proposed, accepted = chain(data, idx, stride, wk.cur, &acc, p.alphas, p.ckb, &wk.r)
	}
	ld := float64(len(idx))
	drawPositions(data, idx, stride, 0, len(idx), ld/(ld+p.alphaBar), p.alphaTab, p.k, &wk.r)
	return proposed, accepted
}

// The log joint of Section 6.1,
//
//	L = Σ_d [ lnΓ(ᾱ) − lnΓ(ᾱ+L_d) + Σ_k lnΓ(α_k+C_dk) − lnΓ(α_k) ]
//	  + Σ_w Σ_k [ lnΓ(β+C_wk) − lnΓ(β) ] + Σ_k [ lnΓ(β̄) − lnΓ(β̄+C_k) ],
//
// is a sum over the nonzero entries of the doc rows, of the word rows and
// of C_k, which the phases count anyway: an evaluating pass's doc runs
// add the doc terms as they count each document (DocRun), one
// sequential pass over the word runs adds the word terms after it
// (WordTerms), and TopicTerms adds the C_k terms of the merged counts.
// internal/eval's LogJoint, which counts from the assignments, is the
// oracle these sums are tested against.

// lgDiffSize is the number of counts an lgDiff tabulates: most counts
// of a row are small.
const lgDiffSize = 1024

// lgDiff is lnΓ(a+n) − lnΓ(a) for integer n ≥ 0, tabulated below
// lgDiffSize.
type lgDiff struct {
	a, lga float64
	tab    []float64
}

func newLgDiff(a float64) lgDiff {
	d := lgDiff{a: a, lga: lgamma(a), tab: make([]float64, lgDiffSize)}
	for n := range d.tab {
		d.tab[n] = lgamma(a+float64(n)) - d.lga
	}
	return d
}

func (d *lgDiff) at(n int32) float64 {
	if uint32(n) < lgDiffSize {
		return d.tab[n]
	}
	return lgamma(d.a+float64(n)) - d.lga
}

// lgamma drops the sign math.Lgamma returns; every argument here is > 0.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// logJoint holds the tables of the log joint's terms for one Pass.
type logJoint struct {
	alpha, alphaBar, beta, betaBar lgDiff
	alphas, lgAlphas               []float64 // an α vector and its lnΓ(α_k); nil when symmetric
}

func newLogJoint(p *Pass) *logJoint {
	lj := &logJoint{
		alphaBar: newLgDiff(p.alphaBar),
		beta:     newLgDiff(p.beta),
		betaBar:  newLgDiff(p.betaBar),
	}
	if p.alphaTab == nil {
		lj.alpha = newLgDiff(p.alphas[0])
		return lj
	}
	lj.alphas = p.alphas
	lj.lgAlphas = make([]float64, len(p.alphas))
	for k, a := range p.alphas {
		lj.lgAlphas[k] = lgamma(a)
	}
	return lj
}

// docTerms folds the counts of one document's new assignments, row,
// into lane and returns the document's terms of the log joint.
func (lj *logJoint) docTerms(row countRow, lane []int32) float64 {
	var ld int32
	s := 0.0
	if lj.alphas == nil {
		for _, t := range row.touched {
			c := row.c[t]
			lane[t] += c
			ld += c
			s += lj.alpha.at(c)
		}
	} else {
		for _, t := range row.touched {
			c := row.c[t]
			lane[t] += c
			ld += c
			s += lgamma(lj.alphas[t]+float64(c)) - lj.lgAlphas[t]
		}
	}
	return s - lj.alphaBar.at(ld)
}

// WordTerms adds the terms of one word to wk's sum: Σ_k lnΓ(β+C_wk) −
// lnΓ(β) over the current assignments of the contiguous entries data.
// It reads the tables of an earlier Evaluate(true).
func (p *Pass) WordTerms(wk *Worker, data []int32, stride int) {
	wk.cur.reset()
	count(data, nil, stride, &wk.cur)
	s := 0.0
	for _, t := range wk.cur.touched {
		s += p.lj.beta.at(wk.cur.c[t])
	}
	wk.sum += s
}

// TopicTerms returns the C_k terms of the log joint, Σ_k lnΓ(β̄) −
// lnΓ(β̄+C_k), of the merged counts ck. It reads the tables of an
// earlier Evaluate(true).
func (p *Pass) TopicTerms(ck []int32) float64 {
	s := 0.0
	for _, c := range ck {
		s -= p.lj.betaBar.at(c)
	}
	return s
}
