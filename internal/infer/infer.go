// Package infer is the query-side counterpart of internal/core: a
// fold-in engine that estimates the topic mixture θ̂ of unseen documents
// against a frozen, trained model.
//
// Training freezes Φ̂_wk = (C_wk+β)/(C_k+β̄); answering a query for
// document d means sampling from
//
//	p(z_n = k | rest) ∝ (c_dk + α) Φ̂_{w_n k}
//
// The naive collapsed-Gibbs fold-in evaluates all K topics per token.
// The engine instead runs the same cycle-proposal Metropolis–Hastings
// chain the training samplers use (LightLDA / WarpLDA, Section 4.3 of
// the paper), which is O(1) per token:
//
//   - word proposal  q_word(k) ∝ Φ̂_wk — because Φ̂ is frozen, this is
//     drawn from per-word alias tables built ONCE per engine and
//     amortized across every request. And because the proposal equals
//     the word-dependent factor of the target exactly, its acceptance
//     ratio collapses to (c_dt+α)/(c_ds+α): no Φ̂ lookups at all.
//   - doc proposal   q_doc(k) ∝ c_dk + α — drawn by random positioning
//     over the document's current assignments (no table build). It
//     equals the document-dependent factor of the target, so its
//     acceptance ratio collapses to Φ̂_wt/Φ̂_ws: no c_d lookups at all.
//
// The tables and the per-token loop are the training kernel's
// (internal/core/kernel.go). A word owns one alias.Packed of 16-byte
// bins over its support C_wk/(C_k+β̄) plus one smoothTopic outcome that
// carries the mass Σ_k β/(C_k+β̄) all words share; that outcome redirects
// the draw to the engine's one K-bin table over β/(C_k+β̄). A proposal
// costs one generator word (doc: mixture coin in the high half, token
// position or uniform topic in the low half; word: bin and threshold)
// and an acceptance test cross-multiplies instead of dividing; runChain
// derives the rates. The chain a given (doc, sweeps, seed) follows is
// therefore a property of the build: answers are reproducible between
// engines of one build, not across builds that change how the
// generator is consumed.
//
// Engines are safe for concurrent use: all shared state is read-only
// after construction, and InferBatch shards a batch of documents across
// a worker pool with per-worker scratch state, mirroring
// core.Warp.runPhase.
package infer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"warplda/internal/alias"
	"warplda/internal/rng"
)

// Params are the frozen point estimates of a trained LDA model. The
// slices are retained (not copied) and must not be mutated while the
// engine is in use.
type Params struct {
	V, K  int
	Alpha float64 // symmetric document-topic prior
	Beta  float64 // symmetric topic-word prior
	Cw    []int32 // V×K word-topic counts, row-major by word
	Ck    []int64 // K global topic counts
}

// Options tune the engine. The zero value picks sensible defaults.
type Options struct {
	// MHSteps is the number of (doc, word) proposal pairs per token per
	// sweep. 0 means 2. Larger values track the exact Gibbs conditional
	// more closely at proportional cost.
	MHSteps int
	// Workers is the worker-pool size used by InferBatch. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// DefaultSweeps is the fold-in sweep count used when a caller passes
// sweeps < 1, matching Model.DocTopics' historical default.
const DefaultSweeps = 5

// smoothTopic is the outcome a word's table reserves for "draw from the
// smoothing part β/(C_k+β̄) instead", which is the same for every word.
const smoothTopic = -1

// Engine answers fold-in queries against one frozen model. Construction
// is O(V·K); queries are O(MHSteps) per token. Safe for concurrent use.
type Engine struct {
	p        Params
	alphaBar float64
	ckBar    []float64      // C_k + β̄
	words    []alias.Packed // word w: C_wk/(C_k+β̄) over its support, zbSmooth on smoothTopic
	smooth   alias.Packed   // β/(C_k+β̄) over all K topics
	zbSmooth float64        // Σ_k β/(C_k+β̄)
	mh       int
	workers  int

	// scratchPool recycles per-call chain state (assignment vector,
	// doc-topic counts, RNG) so the steady-state request path performs
	// no per-token allocation beyond the returned θ̂.
	scratchPool sync.Pool

	// Serving counters; see Stats.
	statDispatches atomic.Int64
	statDocs       atomic.Int64
}

// EngineStats are cumulative serving counters. Dispatches counts
// batch-entry invocations (InferBatch / InferBatchSweeps / Infer);
// Docs counts documents folded in. A request coalescer in front of the
// engine is observable here: N coalesced single-doc requests move Docs
// by N but Dispatches by fewer than N.
type EngineStats struct {
	Dispatches int64 `json:"dispatches"`
	Docs       int64 `json:"docs"`
}

// Stats returns the engine's cumulative serving counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{Dispatches: e.statDispatches.Load(), Docs: e.statDocs.Load()}
}

// NewEngine validates p and precomputes the per-word proposal tables.
func NewEngine(p Params, opts Options) (*Engine, error) {
	if p.V <= 0 || p.K <= 0 {
		return nil, fmt.Errorf("infer: dims V=%d K=%d, want > 0", p.V, p.K)
	}
	if p.Alpha <= 0 || p.Beta <= 0 {
		return nil, fmt.Errorf("infer: non-positive priors α=%g β=%g", p.Alpha, p.Beta)
	}
	if len(p.Cw) != p.V*p.K {
		return nil, fmt.Errorf("infer: len(Cw) = %d, want V·K = %d", len(p.Cw), p.V*p.K)
	}
	if len(p.Ck) != p.K {
		return nil, fmt.Errorf("infer: len(Ck) = %d, want K = %d", len(p.Ck), p.K)
	}
	for k, c := range p.Ck {
		if c < 0 {
			return nil, fmt.Errorf("infer: negative topic count Ck[%d] = %d", k, c)
		}
	}
	e := &Engine{p: p, words: make([]alias.Packed, p.V), mh: opts.MHSteps, workers: opts.Workers}
	if e.mh < 1 {
		e.mh = 2
	}
	if e.workers < 1 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.buildTables()
	return e, nil
}

// buildTables derives everything the chain reads from e.p: C_k+β̄, the
// smoothing table, and the table of every word whose entry in e.words
// is still nil (ApplyDelta fills in the ones it shares beforehand). It
// returns the number of word tables built. Every table goes through one
// scratch alias.Table, so the engine retains only the packed bins.
func (e *Engine) buildTables() (built int) {
	p := e.p
	e.alphaBar = p.Alpha * float64(p.K)
	e.ckBar = make([]float64, p.K)

	var tab alias.Table
	betaBar := p.Beta * float64(p.V)
	weights := make([]float64, p.K, p.K+1)
	for k := range weights {
		e.ckBar[k] = float64(p.Ck[k]) + betaBar
		weights[k] = p.Beta / e.ckBar[k]
		e.zbSmooth += weights[k]
	}
	tab.Build(weights)
	e.smooth = tab.Pack(make(alias.Packed, 0, p.K), nil)

	topics := make([]int32, 0, p.K+1)
	for w := range e.words {
		if e.words[w] != nil {
			continue
		}
		built++
		topics, weights = topics[:0], weights[:0]
		for k, c := range p.Cw[w*p.K : (w+1)*p.K] {
			if c > 0 {
				topics = append(topics, int32(k))
				weights = append(weights, float64(c)/e.ckBar[k])
			}
		}
		topics = append(topics, smoothTopic)
		weights = append(weights, e.zbSmooth)
		tab.Build(weights)
		e.words[w] = tab.Pack(make(alias.Packed, 0, len(topics)), topics)
	}
	return built
}

// K returns the engine's topic count.
func (e *Engine) K() int { return e.p.K }

// V returns the engine's vocabulary size.
func (e *Engine) V() int { return e.p.V }

// Alpha returns the engine's symmetric document-topic prior.
func (e *Engine) Alpha() float64 { return e.p.Alpha }

// Beta returns the engine's symmetric topic-word prior.
func (e *Engine) Beta() float64 { return e.p.Beta }

// Count returns the frozen word-topic count C_wk. It is the sparse
// structure analytics queries iterate: a topic's top words are the
// words with the largest counts in its column. Bounds are the caller's
// responsibility (0 <= w < V, 0 <= k < K).
func (e *Engine) Count(w, k int) int32 { return e.p.Cw[w*e.p.K+k] }

// TopicTokens returns the global token count C_k of topic k.
func (e *Engine) TopicTokens(k int) int64 { return e.p.Ck[k] }

// Phi evaluates the frozen point estimate Φ̂_wk = (C_wk+β)/(C_k+β̄).
func (e *Engine) Phi(w, k int) float64 {
	return (float64(e.p.Cw[w*e.p.K+k]) + e.p.Beta) / e.ckBar[k]
}

// MemoryBytes is the memory the engine owns: the C_k+β̄ row, the
// smoothing table, and per word one slice header plus 16 bytes per
// alias bin (its support and the smoothTopic outcome). It excludes the
// Params count slices, which the engine retains but does not own
// (Model.SizeBytes accounts for those). Multi-model serving layers use
// the sum of both to enforce an LRU byte budget.
func (e *Engine) MemoryBytes() int64 {
	const binBytes, sliceHeader = 16, 24
	n := int64(len(e.ckBar))*8 + int64(len(e.smooth))*binBytes
	n += int64(len(e.words)) * sliceHeader
	for _, tab := range e.words {
		n += int64(len(tab)) * binBytes
	}
	return n
}

func (e *Engine) validateDoc(doc []int32) error {
	for n, w := range doc {
		if w < 0 || int(w) >= e.p.V {
			return fmt.Errorf("infer: token %d has word id %d outside [0,%d)", n, w, e.p.V)
		}
	}
	return nil
}

// scratch is the per-worker (or per-call) reusable chain state: the
// assignment vector and the doc-topic counts.
type scratch struct {
	z  []int32
	cd []int32
}

// getScratch takes a scratch from the engine's pool (allocating on
// first use); putScratch returns it.
func (e *Engine) getScratch() *scratch {
	if sc, ok := e.scratchPool.Get().(*scratch); ok {
		return sc
	}
	return &scratch{cd: make([]int32, e.p.K)}
}

func (e *Engine) putScratch(sc *scratch) { e.scratchPool.Put(sc) }

// inferInto runs the fold-in chain for one document from seed and
// writes θ̂ into theta (length K). doc must be pre-validated; sc must
// not be shared across concurrent calls.
func (e *Engine) inferInto(doc []int32, sweeps int, seed uint64, sc *scratch, theta []float64) {
	k := e.p.K
	ld := len(doc)
	if ld == 0 {
		for t := range theta {
			theta[t] = 1 / float64(k)
		}
		return
	}
	e.runChain(doc, sweeps, seed, sc)
	alpha := e.p.Alpha
	for t := 0; t < k; t++ {
		theta[t] = (float64(sc.cd[t]) + alpha) / (float64(ld) + e.alphaBar)
	}
}

// runChain runs the MH fold-in chain for one non-empty document from
// seed, leaving the final assignments in sc.z and their counts in
// sc.cd. It is the shared core of the dense (inferInto) and sparse
// (InferSparse) extraction paths.
//
// Per token and MH step it offers a doc proposal and then a word
// proposal to the chain state cur. With c_d excluding the token being
// resampled, the target is p(k) ∝ (c_dk+α)(C_wk+β)/(C_k+β̄). The doc
// proposal is drawn by random positioning over z, and z[n] always holds
// cur, so q_doc(k | cur) ∝ c_dk + α + [k==cur]: between two different
// topics the proposal ratio is exactly the target's document factor and
// the acceptance rate is Φ̂_wt/Φ̂_wcur. (Leaving the token's old topic in
// z for all its steps and correcting the rate with [k==old] terms, as
// LightLDA does, makes the proposal depend on the state the step
// started from without the rate knowing; its stationary distribution is
// off by O(1/L_d), which TestFoldInMatchesExactPosterior sees.) The
// word proposal is ∝ Φ̂_wk exactly, so its rate is (c_dt+α)/(c_dcur+α).
// Both are decided by rng.AcceptMask on one generator word per step,
// whether or not the proposal equals cur: accept iff u·den ≤ num. The
// mask selects the next state, and the doc proposal's mixture coin
// selects between the positioned token's topic and the uniform topic,
// so the only data-dependent branch left is the word proposal's rare
// redirect to the smoothing table.
func (e *Engine) runChain(doc []int32, sweeps int, seed uint64, sc *scratch) {
	k := e.p.K
	ld := len(doc)
	if sweeps < 1 {
		sweeps = DefaultSweeps
	}
	if cap(sc.z) < ld {
		sc.z = make([]int32, ld)
	}
	z := sc.z[:ld]
	cd := sc.cd
	clear(cd)

	var g rng.RNG // a local, so its state stays in registers over the loop
	g.Seed(seed)
	uk, uld := uint64(k), uint64(ld)
	for n := range z {
		t := int32(g.Uint64() >> 32 * uk >> 32)
		z[n] = t
		cd[t]++
	}
	alpha, beta := e.p.Alpha, e.p.Beta
	ckb, smooth, mh := e.ckBar, e.smooth, e.mh
	coin := uint64(float64(ld) / (float64(ld) + e.alphaBar) * (1 << 32))
	for s := 0; s < sweeps; s++ {
		for n, w := range doc {
			cw, tab := e.p.Cw[int(w)*k:(int(w)+1)*k], e.words[w]
			cur := z[n]
			cd[cur]-- // counts exclude the token being resampled
			for step := 0; step < mh; step++ {
				// Doc proposal: coin in the high half of one word,
				// position or uniform topic in the low half. The coin is
				// a mask (all ones iff x>>32 < coin): gc would branch on
				// it, as t goes on to address loads.
				x := g.Uint64()
				lo := x & (1<<32 - 1)
				t := int32(lo * uk >> 32)
				t ^= (t ^ z[lo*uld>>32]) & int32(int64(x>>32-coin)>>63)
				num := (float64(cw[t]) + beta) * ckb[cur]
				den := (float64(cw[cur]) + beta) * ckb[t]
				cur ^= (cur ^ t) & int32(rng.AcceptMask(g.Uint64(), num, den))
				// Word proposal. z[n] need not hold cur yet: only the
				// next doc proposal reads it.
				t = tab.Draw(g.Uint64())
				if t == smoothTopic {
					t = smooth.Draw(g.Uint64())
				}
				num, den = float64(cd[t])+alpha, float64(cd[cur])+alpha
				cur ^= (cur ^ t) & int32(rng.AcceptMask(g.Uint64(), num, den))
				z[n] = cur
			}
			cd[cur]++
		}
	}
}

// Infer estimates the topic mixture of one document with the given
// number of sweeps (sweeps < 1 means DefaultSweeps). The result is
// deterministic in (doc, sweeps, seed).
func (e *Engine) Infer(doc []int32, sweeps int, seed uint64) ([]float64, error) {
	if err := e.validateDoc(doc); err != nil {
		return nil, err
	}
	e.statDispatches.Add(1)
	e.statDocs.Add(1)
	theta := make([]float64, e.p.K)
	sc := e.getScratch()
	e.inferInto(doc, sweeps, seed, sc, theta)
	e.putScratch(sc)
	return theta, nil
}

// ReferenceGibbs is the naive fold-in this engine replaces: collapsed
// Gibbs with an O(K) scan per token, the pre-engine Model.DocTopics.
// It is kept as the single authoritative baseline for correctness
// tests (the engine must agree with it within MCMC tolerance) and for
// throughput benchmarks; it performs no input validation.
func ReferenceGibbs(p Params, doc []int32, sweeps int, seed uint64) []float64 {
	k := p.K
	betaBar := p.Beta * float64(p.V)
	theta := make([]float64, k)
	if len(doc) == 0 {
		for i := range theta {
			theta[i] = 1 / float64(k)
		}
		return theta
	}
	if sweeps < 1 {
		sweeps = DefaultSweeps
	}
	r := rng.New(seed)
	z := make([]int32, len(doc))
	cd := make([]int32, k)
	for n := range doc {
		z[n] = int32(r.Intn(k))
		cd[z[n]]++
	}
	probs := make([]float64, k)
	for s := 0; s < sweeps; s++ {
		for n, w := range doc {
			cd[z[n]]--
			var sum float64
			for t := 0; t < k; t++ {
				phi := (float64(p.Cw[int(w)*k+t]) + p.Beta) / (float64(p.Ck[t]) + betaBar)
				sum += (float64(cd[t]) + p.Alpha) * phi
				probs[t] = sum
			}
			u := r.Float64() * sum
			nt := int32(k - 1)
			for t := 0; t < k; t++ {
				if u < probs[t] {
					nt = int32(t)
					break
				}
			}
			z[n] = nt
			cd[nt]++
		}
	}
	alphaBar := p.Alpha * float64(k)
	for t := 0; t < k; t++ {
		theta[t] = (float64(cd[t]) + p.Alpha) / (float64(len(doc)) + alphaBar)
	}
	return theta
}

// docSeed derives the per-document RNG seed for batched inference from
// the batch seed and the document's content (FNV-1a over the token
// ids). Seeding by content rather than by batch position makes each
// document's result independent of batch order, batch composition, and
// worker count — and gives identical documents identical results.
func docSeed(seed uint64, doc []int32) uint64 {
	h := uint64(14695981039346656037) ^ (seed * 0x9e3779b97f4a7c15)
	for _, w := range doc {
		h ^= uint64(uint32(w))
		h *= 1099511628211
	}
	return h
}

// InferBatch estimates the topic mixtures of a batch of documents
// concurrently: documents are sharded across the engine's worker pool,
// each worker holding its own RNG and scratch state. Result i always
// corresponds to docs[i], and every document's result is deterministic
// in (doc, sweeps, seed) alone — independent of batch order and worker
// count. An invalid document fails the whole batch before any work
// runs.
func (e *Engine) InferBatch(docs [][]int32, sweeps int, seed uint64) ([][]float64, error) {
	return e.inferBatch(docs, sweeps, nil, seed)
}

// InferBatchSweeps is InferBatch with a per-document sweep count
// (len(sweeps) must equal len(docs)). It exists for request
// coalescers: concurrent requests that disagree on sweeps can still
// share one worker-pool dispatch, and each document's result is
// identical to what an uncoalesced InferBatch with its own sweep count
// would return — the per-document seed depends only on (seed, doc).
func (e *Engine) InferBatchSweeps(docs [][]int32, sweeps []int, seed uint64) ([][]float64, error) {
	if len(sweeps) != len(docs) {
		return nil, fmt.Errorf("infer: %d sweep counts for %d docs", len(sweeps), len(docs))
	}
	return e.inferBatch(docs, 0, sweeps, seed)
}

// inferBatch folds docs in with perDoc[i] sweeps each, or sweeps when
// perDoc is nil. The θ̂ rows are cut from one slab, and the serial path
// builds no closure, so a batch on one worker allocates twice.
func (e *Engine) inferBatch(docs [][]int32, sweeps int, perDoc []int, seed uint64) ([][]float64, error) {
	for i, doc := range docs {
		if err := e.validateDoc(doc); err != nil {
			return nil, fmt.Errorf("doc %d: %w", i, err)
		}
	}
	e.statDispatches.Add(1)
	e.statDocs.Add(int64(len(docs)))
	k := e.p.K
	out := make([][]float64, len(docs))
	slab := make([]float64, len(docs)*k)
	for i := range out {
		out[i] = slab[i*k : (i+1)*k : (i+1)*k]
	}
	workers := e.workers
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		sc := e.getScratch()
		for i, doc := range docs {
			e.foldDoc(doc, sweeps, perDoc, i, seed, sc, out[i])
		}
		e.putScratch(sc)
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := e.getScratch()
			defer e.putScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				e.foldDoc(docs[i], sweeps, perDoc, i, seed, sc, out[i])
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// foldDoc is one document of a batch: document i's own sweep count when
// the batch has them, and a seed derived from its content.
func (e *Engine) foldDoc(doc []int32, sweeps int, perDoc []int, i int, seed uint64, sc *scratch, theta []float64) {
	if perDoc != nil {
		sweeps = perDoc[i]
	}
	e.inferInto(doc, sweeps, docSeed(seed, doc), sc, theta)
}
