// Package core implements WarpLDA, the paper's primary contribution: an
// O(1)-per-token Metropolis–Hastings sampler for LDA whose randomly
// accessed memory per document (or word) is O(K).
//
// The sampler realizes the MCEM algorithm of Section 4.2: it seeks a MAP
// estimate of (Θ, Φ) with Z integrated out, alternating an E-step that
// samples every topic assignment from
//
//	q(z_dn = k) ∝ (C_dk + α) (C_wk + β) / (C_k + β̄)        (Eq. 5)
//
// with all counts frozen (delayed update), and an implicit M-step that
// recomputes counts. Freezing the counts is what permits the reordering
// strategy of Section 4.4: proposals for *all* tokens are drawn before
// any acceptance rate is computed, so one full iteration becomes
//
//	word phase  (VisitByColumn): finish the doc-proposal MH chains,
//	            then draw word proposals  — touches only c_w and c_k;
//	doc phase   (VisitByRow):   finish the word-proposal MH chains,
//	            then draw doc proposals   — touches only c_d and c_k,
//
// exactly Algorithm 2 in the paper's appendix. Neither count matrix is
// stored: c_w and c_d are recomputed on the fly for the row/column being
// visited, in a reused buffer that fits in cache.
//
// Iterate runs heavy → wordPhase → docPhase → merge. A phase hands each
// of its columns or rows to WordRun or DocRun (kernel.go), which visit
// it in three sweeps — count, finish chains (a document's counting its
// new assignments as it goes), draw by positioning — each one kernel
// over the raw payload array; this file only schedules the columns and
// rows across the workers.
//
// Threading model (docs/PERFORMANCE.md): work is cut into contiguous
// chunks whose token payloads fit in a per-core L2 budget, assigned to
// workers with the deterministic greedy partitioner; each worker
// accumulates global-count updates into a cache-line-padded per-thread
// delta buffer that is merged exactly once per pass. Columns too heavy
// for one worker go through the staged cooperative passes in heavy.go,
// at every thread count. Draws are keyed by (seed, iteration, phase,
// key) (kernel.go), counts merge by integer sums and the log joint adds
// its terms in key order, so the state and the log joint after any pass
// are the same bits at every thread count.
package core

import (
	"fmt"
	"io"
	"sync"

	"warplda/internal/corpus"
	"warplda/internal/rng"
	"warplda/internal/sampler"
	"warplda/internal/sparse"
)

// Cache-layout constants of the threaded passes.
const (
	// cacheLineI32 is one 64-byte cache line in int32 units. Per-thread
	// delta buffers are padded to this granularity so no two workers ever
	// write the same line (false sharing).
	cacheLineI32 = 16
	// l2ChunkBytes is the token-payload budget of one work chunk: half of
	// a typical 1 MiB per-core L2, leaving the other half for the row
	// counters, the C_k + β̄ table, and the structure arrays.
	l2ChunkBytes = 512 << 10
	// heavyBatchBytes bounds the partial-count scratch of the staged
	// intra-word passes (heavy.go): one batch needs
	// (threads+1)·batch·paddedK int32 of it.
	heavyBatchBytes = 8 << 20
)

// Warp is the WarpLDA sampler bound to one corpus. The corpus may be
// any Provider: in-memory, or a memory-mapped .warpcorpus cache whose
// token array lives in page cache instead of heap (corpus.OpenMapped).
type Warp struct {
	cfg sampler.Config
	c   corpus.Provider

	// m holds one entry per token at (doc, word); the payload is the
	// current assignment z followed by M proposals.
	m *sparse.Matrix

	ck     []int32 // global topic counts, frozen during an iteration
	ckNext []int32 // accumulator for the next iteration's ck
	pass   *Pass   // the priors and ck + β̄, the factor the acceptance rates read

	workers  []*worker
	ckDeltas []int32 // backing array of the per-worker ckAcc views, padded
	asgBuf   [][]int32

	heavyCols []int      // columns processed with intra-word parallelism
	isHeavy   []bool     // per column
	heavy     *heavyPlan // staged schedule for heavyCols (nil if none)

	// evalNext asks the coming Iterate to sum the log joint (EvalNext);
	// summed says the last one did and nothing has changed the state
	// since. terms holds the log joint's terms by key: one slot per
	// document, which the doc runs of an evaluating pass fill, then one
	// per word, which LogJoint fills. They are added in that order, so
	// the sum does not depend on the thread count.
	evalNext, summed bool
	terms            []float64
}

// worker carries the per-goroutine state: the phase-run scratch and
// what the thread schedule gives it.
type worker struct {
	Worker
	i     int       // its index, which picks its heavy lanes
	ckAcc []int32   // view into Warp.ckDeltas, one padded lane per worker
	stats PassStats // this worker's share of the current pass

	colChunks [][2]int // column ranges [start, end) owned in the word phase
	rowChunks [][2]int // row ranges owned in the doc phase
	heavyOwn  []int    // heavy columns it merges in the staged passes
}

// New builds a WarpLDA sampler. The corpus must be valid; cfg.M ≥ 1 is
// required (the paper uses M between 1 and 4). The sampler is the
// paper's design with one departure: Section 5.4 keeps c_d and c_w in a
// hash table, and here they are a K-sized array with a touched list at
// every K (countRow in kernel.go), which was faster in every cell of a
// sweep up to K = 2²⁰ (docs/PERFORMANCE.md).
func New(c corpus.Provider, cfg sampler.Config) (*Warp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("core: M = %d, want >= 1", cfg.M)
	}
	if err := corpus.ValidateProvider(c); err != nil {
		return nil, err
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}

	w := &Warp{
		cfg:    cfg,
		c:      c,
		ck:     make([]int32, cfg.K),
		ckNext: make([]int32, cfg.K),
		pass:   NewPass(cfg, c.NumWords()),
	}

	w.m = sparse.FromRows(c.NumDocs(), c.NumWords(), cfg.M+1, c.Doc)

	// Random initialization: z uniform; proposals start equal to z so the
	// first word phase's chains are no-ops.
	r := rng.New(cfg.Seed)
	w.m.VisitByRow(func(_ int, v sparse.RowView) {
		for i := 0; i < v.Len(); i++ {
			data := v.Data(i)
			z := int32(r.Intn(cfg.K))
			for j := range data {
				data[j] = z
			}
			w.ck[z]++
		}
	})

	w.pass.Freeze(w.ck)
	w.buildWorkers()
	return w, nil
}

// buildWorkers derives the whole static thread schedule from the corpus
// and the Config: the per-worker chunk lists, the padded delta buffers,
// and the staged plan for heavy columns. Which columns are heavy and how
// they are cut into segments depends on the corpus and M only, so the
// runs a pass makes are the same at every thread count.
func (w *Warp) buildWorkers() {
	n := w.cfg.Threads
	w.workers = make([]*worker, n)

	// Balance the phase work: columns by term frequency, rows by length.
	tf := corpus.TermFreqsOf(w.c)
	// Section 5.4: the most frequent words (Lw > K) are processed with
	// all workers cooperating, which keeps one c_w in cache and balances
	// the load those words would otherwise skew; they are excluded from
	// the per-worker chunks by zeroing their weight. One thread takes the
	// same staged path, inline, so that a pass does not depend on T.
	w.isHeavy = make([]bool, w.c.NumWords())
	threshold := max(w.cfg.K, 1024) // avoid barrier overhead on toy columns
	balanced := make([]int, len(tf))
	copy(balanced, tf)
	for col, f := range tf {
		if f > threshold {
			w.isHeavy[col] = true
			w.heavyCols = append(w.heavyCols, col)
			balanced[col] = 0
		}
	}
	tf = balanced
	dl := make([]int, w.c.NumDocs())
	for d := range dl {
		dl[d] = len(w.c.Doc(d))
	}

	// Per-thread delta buffers: one padded lane per worker carved from a
	// single backing array. The lane stride rounds K up to a cache line
	// and adds one guard line, so no two workers' lanes can share a line
	// whatever the base alignment — the merge in Iterate is the only
	// cross-thread traffic the accumulators generate.
	stride := ckLaneStride(w.cfg.K)
	w.ckDeltas = make([]int32, n*stride)
	for i := 0; i < n; i++ {
		w.workers[i] = &worker{
			Worker: *NewWorker(w.cfg.K),
			i:      i,
			ckAcc:  w.ckDeltas[i*stride : i*stride+w.cfg.K : i*stride+w.cfg.K],
		}
	}

	// Work chunks: contiguous ranges sized so one chunk's token payloads
	// fit the L2 budget, greedy-assigned to workers by token weight. A
	// chunk list beats n flat ranges in two ways: the greedy partition
	// balances better than equal-prefix cuts, and a chunk is small enough
	// that its payloads are still cached when the phase revisits them.
	chunkTokens := max(1, l2ChunkBytes/(4*(w.cfg.M+1)))
	colChunks := chunkRanges(tf, chunkTokens, n)
	rowChunks := chunkRanges(dl, chunkTokens, n)
	colOwner := sparse.GreedyPartition(rangeWeights(colChunks, tf), n)
	rowOwner := sparse.GreedyPartition(rangeWeights(rowChunks, dl), n)
	for ci, rg := range colChunks {
		wk := w.workers[colOwner.Assign[ci]]
		wk.colChunks = append(wk.colChunks, rg)
	}
	for ri, rg := range rowChunks {
		wk := w.workers[rowOwner.Assign[ri]]
		wk.rowChunks = append(wk.rowChunks, rg)
	}

	if len(w.heavyCols) > 0 {
		w.heavy = w.buildHeavyPlan()
	}
}

// ckLaneStride is the int32 distance between two workers' delta lanes:
// K rounded up to a whole cache line, plus one guard line.
func ckLaneStride(k int) int {
	return (k+cacheLineI32-1)/cacheLineI32*cacheLineI32 + cacheLineI32
}

// chunkRanges cuts items into contiguous ranges of roughly equal weight,
// at least minChunks of them (so every worker can own work) and enough
// that no range much exceeds budget total weight. Empty ranges are
// dropped; the returned ranges tile [0, len(weights)) exactly.
func chunkRanges(weights []int, budget, minChunks int) [][2]int {
	if len(weights) == 0 {
		return nil
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	n := (total + budget - 1) / budget
	n = max(n, minChunks)
	n = min(n, len(weights))
	n = max(n, 1)
	cuts := contiguousCuts(weights, n)
	ranges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		if cuts[i] < cuts[i+1] {
			ranges = append(ranges, [2]int{cuts[i], cuts[i+1]})
		}
	}
	return ranges
}

// rangeWeights sums weights over each range, for the greedy assignment.
func rangeWeights(ranges [][2]int, weights []int) []int {
	out := make([]int, len(ranges))
	for i, rg := range ranges {
		for j := rg[0]; j < rg[1]; j++ {
			out[i] += weights[j]
		}
	}
	return out
}

// contiguousCuts splits items into n contiguous ranges with roughly equal
// total weight, returning n+1 cut points.
func contiguousCuts(weights []int, n int) []int {
	var total int64
	for _, w := range weights {
		total += int64(w)
	}
	cuts := make([]int, n+1)
	cuts[n] = len(weights)
	var acc int64
	part := 1
	for i := range weights {
		if part < n && acc >= total*int64(part)/int64(n) {
			cuts[part] = i
			part++
		}
		acc += int64(weights[i])
	}
	for ; part < n; part++ {
		cuts[part] = len(weights)
	}
	return cuts
}

// Name implements sampler.Sampler.
func (w *Warp) Name() string { return "WarpLDA" }

// K returns the configured topic count.
func (w *Warp) K() int { return w.cfg.K }

// PassStats counts what the last Iterate did. A proposal here is an MH
// step whose proposed topic differed from the chain's current state (a
// step that proposes the state itself changes nothing either way), so
// an acceptance rate near zero means the chains have stopped moving.
type PassStats struct {
	WordProposals, WordAccepts int64 // word phase: chains of the doc proposals
	DocProposals, DocAccepts   int64 // doc phase: chains of the word proposals
	HeavyColumns               int   // columns that took the staged path
}

// AcceptRates returns the share of proposals accepted in each phase (0
// when a phase made none).
func (s PassStats) AcceptRates() (word, doc float64) {
	if s.WordProposals > 0 {
		word = float64(s.WordAccepts) / float64(s.WordProposals)
	}
	if s.DocProposals > 0 {
		doc = float64(s.DocAccepts) / float64(s.DocProposals)
	}
	return word, doc
}

// PassStats returns the counts of the last Iterate.
func (w *Warp) PassStats() PassStats {
	ps := PassStats{HeavyColumns: len(w.heavyCols)}
	for _, wk := range w.workers {
		ps.WordProposals += wk.stats.WordProposals
		ps.WordAccepts += wk.stats.WordAccepts
		ps.DocProposals += wk.stats.DocProposals
		ps.DocAccepts += wk.stats.DocAccepts
	}
	return ps
}

// Iterate implements sampler.Sampler: the word phase (heavy columns
// first, through the staged passes of heavy.go) then the doc phase,
// after which the global count vector is refreshed (the M-step). The
// per-worker delta buffers are merged exactly once, in merge — the
// phases themselves never write shared memory.
func (w *Warp) Iterate() {
	for _, wk := range w.workers {
		wk.stats = PassStats{}
	}
	due := w.evalNext
	w.evalNext = false
	if due && w.terms == nil {
		w.terms = make([]float64, w.c.NumDocs()+w.c.NumWords())
	}
	w.pass.Evaluate(due)
	w.heavyPhase()
	w.wordPhase()
	w.docPhase()
	w.merge()
	w.summed = due
}

// EvalNext implements sampler.PhaseEvaluator: the coming Iterate adds
// the doc terms of the log joint as its doc phase counts each row.
func (w *Warp) EvalNext() { w.evalNext = true }

// LogJoint implements sampler.PhaseEvaluator: the log joint of the
// current state, from the doc terms the last Iterate kept, the word
// terms of one pass over the CSC columns split as the word phase splits
// them (each heavy column goes whole to the worker that merges it), and
// the merged C_k. The terms are added in key order, so the value is a
// function of the state alone. It reports false unless the last Iterate
// was asked to sum (EvalNext).
func (w *Warp) LogJoint() (float64, bool) {
	if !w.summed {
		return 0, false
	}
	w.runPhase((*Warp).wordSums)
	ll := 0.0
	for _, t := range w.terms {
		ll += t
	}
	return ll + w.pass.TopicTerms(w.ck), true
}

// wordSums is one worker's share of LogJoint's pass over the columns.
func (w *Warp) wordSums(wk *worker) {
	for _, rg := range wk.colChunks {
		for col := rg[0]; col < rg[1]; col++ {
			if !w.isHeavy[col] {
				w.wordTerms(wk, col)
			}
		}
	}
	for _, col := range wk.heavyOwn {
		w.wordTerms(wk, col)
	}
}

// wordTerms puts one column's word terms in its slot.
func (w *Warp) wordTerms(wk *worker, col int) {
	if seg := w.m.Column(col).Payload(); len(seg) > 0 {
		w.pass.WordTerms(&wk.Worker, seg, w.m.Stride)
		w.terms[w.c.NumDocs()+col] = wk.TakeSum()
	}
}

func (w *Warp) wordPhase() { w.runPhase((*Warp).wordChunks) }
func (w *Warp) docPhase()  { w.runPhase((*Warp).docChunks) }

// wordChunks is one worker's share of the word phase.
func (w *Warp) wordChunks(wk *worker) {
	for _, rg := range wk.colChunks {
		for col := rg[0]; col < rg[1]; col++ {
			if !w.isHeavy[col] {
				w.wordColumn(wk, col)
			}
		}
	}
}

// docChunks is one worker's share of the doc phase.
func (w *Warp) docChunks(wk *worker) {
	clear(wk.ckAcc)
	for _, rg := range wk.rowChunks {
		for row := rg[0]; row < rg[1]; row++ {
			w.docRow(wk, row)
		}
	}
}

// merge is the M-step: the per-worker delta lanes summed into the next
// iteration's ck, the single cross-thread merge point of the pass, which
// ends the pass: the coming one keys its draws by the next iteration.
func (w *Warp) merge() {
	clear(w.ckNext)
	for _, wk := range w.workers {
		for k, v := range wk.ckAcc {
			w.ckNext[k] += v
		}
	}
	w.ck, w.ckNext = w.ckNext, w.ck
	w.pass.Freeze(w.ck)
	w.pass.Advance()
}

// runPhase runs fn for every worker, concurrently when there are
// several: a phase, or a stage of the heavy passes. (fn is a method
// expression, not a closure, so the serial pass allocates nothing.)
func (w *Warp) runPhase(fn func(*Warp, *worker)) {
	if len(w.workers) == 1 {
		fn(w, w.workers[0])
		return
	}
	var wg sync.WaitGroup
	for _, wk := range w.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			fn(w, wk)
		}(wk)
	}
	wg.Wait()
}

// wordColumn runs the word phase of one column (WordRun).
func (w *Warp) wordColumn(wk *worker, col int) {
	seg := w.m.Column(col).Payload()
	if len(seg) == 0 {
		return
	}
	proposed, accepted := w.pass.WordRun(&wk.Worker, col, seg, nil, w.m.Stride)
	wk.stats.WordProposals += int64(proposed)
	wk.stats.WordAccepts += int64(accepted)
}

// docRow runs the doc phase of one row (DocRun), accumulating the new
// assignments into the worker's delta lane and, when the pass
// evaluates, the row's terms of the log joint into its slot.
func (w *Warp) docRow(wk *worker, row int) {
	idx := w.m.RowOf(row).Entries()
	if len(idx) == 0 {
		return
	}
	proposed, accepted := w.pass.DocRun(&wk.Worker, row, w.m.Payloads(), idx, w.m.Stride, wk.ckAcc)
	if w.pass.evalDue {
		w.terms[row] = wk.TakeSum()
	}
	wk.stats.DocProposals += int64(proposed)
	wk.stats.DocAccepts += int64(accepted)
}

// Assignments implements sampler.Sampler. The returned matrix is aligned
// with the corpus: entry [d][n] is the topic of token n of document d.
// (Row views preserve insertion order, which was token order.)
func (w *Warp) Assignments() [][]int32 {
	if w.asgBuf == nil {
		w.asgBuf = make([][]int32, w.c.NumDocs())
		for d := range w.asgBuf {
			w.asgBuf[d] = make([]int32, len(w.c.Doc(d)))
		}
	}
	w.m.VisitByRow(func(row int, v sparse.RowView) {
		out := w.asgBuf[row]
		for i := 0; i < v.Len(); i++ {
			out[i] = v.Data(i)[0]
		}
	})
	return w.asgBuf
}

// GlobalCounts returns a copy of the current frozen c_k vector.
func (w *Warp) GlobalCounts() []int32 {
	return append([]int32(nil), w.ck...)
}

// StateTo writes every ShardTo stream back to back. Its one caller
// outside tests is the repository benchmark's state-size probe
// (benchmark/probes.go); checkpoints write the shards one per file.
func (w *Warp) StateTo(out io.Writer) error {
	for i := range w.workers {
		if err := w.ShardTo(i, out); err != nil {
			return err
		}
	}
	return nil
}
