package cluster

import (
	"fmt"
	"slices"
	"sync"

	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/rng"
	"warplda/internal/sampler"
	"warplda/internal/sparse"
)

// Distributed runs WarpLDA with *physically sharded* state, the actual
// execution model of Section 5.3: each of P workers owns a disjoint set
// of token entries; the word phase runs with entries partitioned by
// column owner, the doc phase with entries partitioned by row owner, and
// between unlike phases every finished token goes to its next owner
// (the in-process MPI_Ialltoall: each receiver copies every token once,
// to its final offset in its next slab). The only
// replicated state is the K-dim global count vector, allreduced once per
// iteration — exactly the paper's claim that nothing else is shared.
//
// Distributed and core.Warp implement the same algorithm with the same
// kernels: each worker is a Worker (phase.go) running core's phase runs,
// and TestTwoPassLawMatchesExact holds both to one exact law. core.Warp
// is the shared-memory path, Distributed the sharded one; the Figure 6
// and 9 experiments run Distributed and price its topology with Model.
// The live multi-process mode (internal/dist) runs the same Worker and
// the same layout with TCP between the workers.
type Distributed struct {
	cfg  sampler.Config
	c    *corpus.Corpus
	p    int
	top  *Topology
	pass *core.Pass

	// shards[i] holds worker i's tokens laid out for the coming phase
	// (for the word phase between passes). next[i] is the slab a
	// restore lays out for it, and between phases the payloads the
	// exchange copies for it, swapped in after every phase. Laying a
	// slab out by sender makes a run a function of its seed whatever the
	// schedule.
	shards []Slab
	next   []Next
	ck     []int32

	// from[ph][j][x] is where in its sender's slab the token comes from
	// that the exchange after phase ph (0 word, 1 doc) writes at offset
	// x of receiver j's next slab; the sender is the one whose region
	// holds x. Every slab keeps the cells of the initial layout at the
	// same offsets (routes), so the index is a constant of the topology,
	// and so are the documents and words of receiver j's slab for phase
	// ph, cells[ph][j]: an exchange moves payloads only.
	from  [2][][]int32
	cells [2][]Slab

	// ship[ph][i] is how many of the tokens worker i samples in phase ph
	// go to another worker after it: the off-diagonal blocks of the
	// partition, which Model prices.
	ship [2][]int

	workers []*Worker

	// evalNext asks the coming Iterate to sum the log joint (EvalNext);
	// summed says the last one did and nothing has changed the state
	// since, and docSum holds its doc terms.
	evalNext, summed bool
	docSum           float64

	// Assignments regroup scratch, built lazily on first call and reused
	// by every later one (publishing and the tests call it; evaluation
	// does not, see LogJoint).
	asgBuf   [][]int32
	docOff   []int     // cumulative doc offsets into the flat gather buffer
	docOrder [][]int32 // per doc, token positions ordered by word id
	gather   []uint64  // per-call (word, topic) pairs, len NumTokens
	fill     []int32   // per-doc gather fill counters
}

// NewDistributed builds the sharded sampler over p workers.
func NewDistributed(c *corpus.Corpus, cfg sampler.Config, p int) (*Distributed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("cluster: M = %d, want >= 1", cfg.M)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if p < 1 {
		return nil, fmt.Errorf("cluster: %d workers", p)
	}
	d := &Distributed{
		cfg:    cfg,
		c:      c,
		p:      p,
		pass:   core.NewPass(cfg, c.V),
		ck:     make([]int32, cfg.K),
		shards: make([]Slab, p),
		next:   make([]Next, p),
	}

	dl := make([]int, c.NumDocs())
	for di, doc := range c.Docs {
		dl[di] = len(doc)
	}
	cols := sparse.GreedyPartition(c.TermFrequencies(), p)
	rows := sparse.GreedyPartition(dl, p)
	d.top = NewTopology(rows.Assign, cols.Assign, p, c.Docs)

	// A slab's tokens from sender s go back to s after the phase.
	d.ship = [2][]int{make([]int, p), make([]int, p)}
	for ph, ship := range d.ship {
		for i, at := range d.top.lay[ph] {
			for c := 0; c+1 < len(at); c++ {
				if c%p != i {
					ship[i] += int(at[c+1] - at[c])
				}
			}
		}
	}

	// Random initial assignments, in corpus order; proposals start equal
	// to z so the first word phase's chains are no-ops.
	r := rng.New(cfg.Seed)
	var all Slab
	for di, doc := range c.Docs {
		for _, w := range doc {
			z := int32(r.Intn(cfg.K))
			all.D, all.W = append(all.D, int32(di)), append(all.W, w)
			for range cfg.M + 1 {
				all.Data = append(all.Data, z)
			}
		}
	}
	if err := d.layOut(&all, nil); err != nil {
		return nil, err
	}
	if err := d.routes(); err != nil {
		return nil, err
	}

	d.workers = make([]*Worker, p)
	for i := range d.workers {
		d.workers[i] = NewWorker(i, cfg.K, cfg.M, r.Split())
	}
	return d, nil
}

// routes fills from and cells by a dry run of both exchanges: each
// sender puts its tokens, in slab order, into the receivers' next slabs,
// as Phase hands them on. The token at offset x of a word-phase slab
// always lies in the cell it lies in now: each (word, sender) region
// holds its documents in ascending order, each (document, sender)
// region its words, and a cell's tokens keep their order; the initial
// layout and every restore (corpus order) and exchange (emission order)
// keep that. So two exchanges return every token to its offset, and the
// offsets and cells recorded are those of every later exchange.
func (d *Distributed) routes() error {
	for ph := range d.from {
		d.reset(1 - ph)
		d.from[ph] = make([][]int32, d.p)
		for j := range d.from[ph] {
			d.from[ph][j] = make([]int32, d.top.Size(1-ph, j))
		}
		for i := range d.shards {
			sh := &d.shards[i]
			route, dest := sh.D, d.top.Rows
			if ph == 1 {
				route, dest = sh.W, d.top.Cols
			}
			for x, key := range route {
				o := dest[key]
				y, err := d.next[o].Put(i, sh, x)
				if err != nil {
					return err
				}
				d.from[ph][o][y] = int32(x)
			}
		}
		if err := d.adopt(); err != nil {
			return err
		}
		d.cells[1-ph] = make([]Slab, d.p)
		for j, sh := range d.shards {
			d.cells[1-ph][j] = Slab{D: sh.D, W: sh.W}
		}
	}
	return nil
}

// layOut puts the tokens of all, in corpus order — all's own, or the
// order order lists them in — into the word-phase slabs, each as its
// document's owner would send it, and counts their topics into ck.
func (d *Distributed) layOut(all *Slab, order []int32) error {
	d.reset(0)
	for k := range all.D {
		j := k
		if order != nil {
			j = int(order[k])
		}
		if _, err := d.next[d.top.Cols[all.W[j]]].Put(int(d.top.Rows[all.D[j]]), all, j); err != nil {
			return err
		}
	}
	if err := d.adopt(); err != nil {
		return err
	}
	clear(d.ck)
	for j := range all.D {
		d.ck[all.Data[j*(d.cfg.M+1)]]++
	}
	return nil
}

// reset empties the next slabs for phase ph (0 word, 1 doc).
func (d *Distributed) reset(ph int) {
	for j := range d.next {
		d.next[j].Reset(d.top, ph, j, d.cfg.M+1)
	}
}

// adopt makes the filled next slabs the shards, and fails, changing
// nothing, unless every one is full. The shards' arrays are not reused:
// their documents and words may be cells.
func (d *Distributed) adopt() error {
	for j := range d.next {
		if err := d.next[j].Full(); err != nil {
			return err
		}
	}
	for j := range d.next {
		d.shards[j], d.next[j].Slab = d.next[j].Slab, Slab{}
	}
	return nil
}

// BlockTokens returns the send-block granularity of the pipelined
// exchange for a corpus of the given token count over p workers: the
// per-block token count that divides each partition side into the
// paper's B=5 blocks (the middle of Section 5.3.2's [2,10] range). The
// live coordinator ships this value to its workers so both execution
// modes block identically.
func BlockTokens(numTokens, p int) int {
	const blocksPerSide = 5
	return numTokens/(p*p*blocksPerSide) + 1
}

// Name implements sampler.Sampler. The name deliberately excludes the
// worker count: a checkpoint written at one topology must be
// recognizable as the same algorithm when resumed at another (elastic
// resume, shard.go). The count is observable via NumShards.
func (d *Distributed) Name() string { return "WarpLDA-sharded" }

// Partitions returns the row (document) and column (word) owner maps of
// the current topology. The live coordinator ships them to its workers,
// which route finished tokens by the same owner lookup the in-process
// exchange uses. The returned slices are the sampler's own and must not
// be mutated.
func (d *Distributed) Partitions() (rows, cols []int32) {
	return d.top.Rows, d.top.Cols
}

// Counts returns how many tokens of each of slot's words and documents
// each worker sends it (Topology.Counts): with Partitions, what a live
// worker needs to lay out its slabs as this sampler does.
func (d *Distributed) Counts(slot int) (words, docs []int32) {
	return d.top.Counts(slot)
}

// Iterate implements sampler.Sampler: a pipelined word phase streaming
// its finished blocks to the row owners, then a pipelined doc phase
// streaming back to the column owners, then the ck allreduce.
func (d *Distributed) Iterate() {
	due := d.evalNext
	d.evalNext = false
	d.pass.Evaluate(due)
	d.pass.Freeze(d.ck)
	d.exchange(0)
	d.exchange(1)
	clear(d.ck)
	for _, wk := range d.workers {
		for k, v := range wk.CkAcc {
			d.ck[k] += v
		}
	}
	d.summed, d.docSum = due, 0
	if due {
		for _, wk := range d.workers {
			d.docSum += wk.TakeSum()
		}
	}
}

// EvalNext implements sampler.PhaseEvaluator: the coming Iterate's doc
// phase adds the doc terms of the log joint as each worker counts its
// documents.
func (d *Distributed) EvalNext() { d.evalNext = true }

// LogJoint implements sampler.PhaseEvaluator: the log joint of the
// current state, from the doc terms the last Iterate summed, one
// sequential pass over every worker's word-phase slab (what the
// exchange after the doc phase leaves), and the reduced C_k. Partial
// sums are added in worker order, so the value is a function of the
// state and the worker count. It reports false unless the last Iterate
// was asked to sum (EvalNext).
func (d *Distributed) LogJoint() (float64, bool) {
	if !d.summed {
		return 0, false
	}
	d.each(func(i int) { d.workers[i].WordTerms(d.pass, d.top, &d.shards[i]) })
	ll := d.docSum
	for _, wk := range d.workers {
		ll += wk.TakeSum()
	}
	return ll + d.pass.TopicTerms(d.ck), true
}

// exchange runs phase ph (0 word, 1 doc) on every worker at once, then
// has every receiver copy each of its tokens' payloads from its sender's
// slab to its offset in its next slab — one write per token, in offset
// order — and the next slabs, with the cells of the next phase, become
// the shards.
func (d *Distributed) exchange(ph int) {
	d.each(func(i int) {
		if err := d.workers[i].Phase(d.pass, d.top, &d.shards[i], ph == 0, nil); err != nil {
			panic(err) // a nil put cannot fail
		}
	})
	s := d.cfg.M + 1
	d.each(func(j int) {
		at, from, data := d.top.lay[1-ph][j], d.from[ph][j], d.next[j].Data
		if cap(data) < len(from)*s {
			data = make([]int32, len(from)*s)
		}
		data = data[:len(from)*s]
		for c := 0; c+1 < len(at); c++ {
			src := d.shards[c%d.p].Data
			for x := at[c]; x < at[c+1]; x++ {
				// A loop, not copy: a payload is a few words, under the
				// cost of a call.
				to, y := data[int(x)*s:int(x)*s+s], int(from[x])*s
				for k := range to {
					to[k] = src[y+k]
				}
			}
		}
		d.next[j].Data = data
	})
	for j := range d.next {
		d.shards[j].Data, d.next[j].Data = d.next[j].Data, d.shards[j].Data
		d.shards[j].D, d.shards[j].W = d.cells[1-ph][j].D, d.cells[1-ph][j].W
	}
}

// each runs f(0), …, f(p-1) at once and waits for all of them.
func (d *Distributed) each(f func(i int)) {
	var wg sync.WaitGroup
	for i := range d.p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// GlobalCounts returns a copy of the replicated ck vector.
func (d *Distributed) GlobalCounts() []int32 { return append([]int32(nil), d.ck...) }

// pair packs two non-negative int32 so that packed values order as the
// pairs do lexicographically.
func pair(hi, lo int32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// initAssignmentScratch builds the regroup scratch Assignments reuses
// across calls: the output buffer, the flat per-doc gather windows, and
// each document's token order sorted by word id (fixed by the corpus,
// so computed exactly once).
func (d *Distributed) initAssignmentScratch() {
	nd := len(d.c.Docs)
	d.asgBuf = make([][]int32, nd)
	d.docOrder = make([][]int32, nd)
	d.docOff = make([]int, nd+1)
	d.fill = make([]int32, nd)
	for di, doc := range d.c.Docs {
		d.asgBuf[di] = make([]int32, len(doc))
		d.docOff[di+1] = d.docOff[di] + len(doc)
		byWord := make([]uint64, len(doc))
		for n, w := range doc {
			byWord[n] = pair(w, int32(n))
		}
		slices.Sort(byWord)
		order := make([]int32, len(doc))
		for j, x := range byWord {
			order[j] = int32(uint32(x))
		}
		d.docOrder[di] = order
	}
	d.gather = make([]uint64, d.docOff[nd])
}

// Assignments implements sampler.Sampler. Tokens are scrambled across
// shards, so assignments are regrouped per (doc, word) cell; within a
// cell topics are interchangeable, which keeps the log joint likelihood
// well defined. The regroup is a gather into flat per-doc windows plus
// a sort by (word, topic) against each document's precomputed word
// order, so a cell yields its topics in ascending order whichever shards
// held them — the matrix is a function of the token multiset, not of the
// topology. All scratch is allocated once and reused, so the eval loop's
// periodic calls cost no steady-state allocation.
func (d *Distributed) Assignments() [][]int32 {
	if d.asgBuf == nil {
		d.initAssignmentScratch()
	}
	clear(d.fill)
	stride := d.cfg.M + 1
	for _, sh := range d.shards {
		for i, di := range sh.D {
			d.gather[d.docOff[di]+int(d.fill[di])] = pair(sh.W[i], sh.Data[i*stride])
			d.fill[di]++
		}
	}
	for di, out := range d.asgBuf {
		cells := d.gather[d.docOff[di]:d.docOff[di+1]]
		slices.Sort(cells)
		for j, x := range cells {
			out[d.docOrder[di][j]] = int32(uint32(x))
		}
	}
	return d.asgBuf
}
