package cluster

import (
	"fmt"
	"io"
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
// between unlike phases every off-diagonal block is shipped to its next
// owner (the in-process MPI_Ialltoall: the sender copies each finished
// block into its own window of the receiver's next slab). The only
// replicated state is the K-dim global count vector, allreduced once per
// iteration — exactly the paper's claim that nothing else is shared.
//
// Distributed and core.Warp implement the same algorithm with the same
// kernels: each worker is a Worker (phase.go) running core's phase runs,
// and TestTwoPassLawMatchesExact holds both to one exact law. core.Warp
// is the shared-memory path, Distributed the sharded one; the Figure 6
// and 9 experiments use Sim, which times core.Warp under a cost model.
// The live multi-process mode (internal/dist) runs the same Worker with
// TCP in place of the windows.
type Distributed struct {
	cfg  sampler.Config
	c    *corpus.Corpus
	p    int
	top  *Topology
	pass *core.Pass

	// shards[i] holds worker i's tokens in word-phase position (grouped
	// by column owner); next[i] is the slab the exchange fills for the
	// coming phase, and the two swap after every phase.
	shards, next []Slab
	ck           []int32

	// win[ph][i][j] is where sender i's tokens start in receiver j's slab
	// after phase ph (0 word, 1 doc), and recv[ph][j] is receiver j's
	// token count — both known from the partition. Laying the blocks out
	// by sender makes a run a function of its seed whatever the schedule.
	win  [2][][]int
	recv [2][]int

	// blockTokens is the send-block granularity of the pipelined
	// exchange: Section 5.3.2 divides each partition into B×B blocks
	// (B ∈ [2,10]) so finished blocks ship while later ones compute.
	blockTokens int

	workers []*Worker

	// Assignments regroup scratch, built lazily on first call and reused
	// by every later one (the eval loop calls Assignments every reporting
	// interval; rebuilding a tokens-sized map each time dominated eval).
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
		next:   make([]Slab, p),
	}

	dl := make([]int, c.NumDocs())
	for di, doc := range c.Docs {
		dl[di] = len(doc)
	}
	cols := sparse.GreedyPartition(c.TermFrequencies(), p)
	rows := sparse.GreedyPartition(dl, p)
	d.top = NewTopology(rows.Assign, cols.Assign, p)

	// cross[i][j] counts the tokens of column owner i and row owner j.
	cross := make([][]int, p)
	for i := range cross {
		cross[i] = make([]int, p)
	}
	for di, doc := range c.Docs {
		for _, w := range doc {
			cross[cols.Assign[w]][rows.Assign[di]]++
		}
	}
	d.win[0], d.recv[0] = windows(p, func(i, j int) int { return cross[i][j] })
	d.win[1], d.recv[1] = windows(p, func(i, j int) int { return cross[j][i] })

	// Shard tokens by column owner with random initial assignments;
	// proposals start equal to z so the first word phase's chains are
	// no-ops.
	stride := cfg.M + 1
	for i := range d.shards {
		d.shards[i] = makeSlab(d.recv[1][i], stride)
	}
	r := rng.New(cfg.Seed)
	for di, doc := range c.Docs {
		for _, w := range doc {
			z := int32(r.Intn(cfg.K))
			d.ck[z]++
			sh := &d.shards[cols.Assign[w]]
			sh.D = append(sh.D, int32(di))
			sh.W = append(sh.W, w)
			for j := 0; j < stride; j++ {
				sh.Data = append(sh.Data, z)
			}
		}
	}

	d.blockTokens = BlockTokens(c.NumTokens(), p)
	d.workers = make([]*Worker, p)
	for i := range d.workers {
		d.workers[i] = NewWorker(i, p, cfg.K, cfg.M, r.Split())
	}
	return d, nil
}

// windows lays out, for every receiver j, the tokens of the senders i
// in sender order, where n(i, j) is how many i sends j: it returns each
// sender's start offset per receiver, and each receiver's total.
func windows(p int, n func(i, j int) int) (win [][]int, total []int) {
	win, total = make([][]int, p), make([]int, p)
	for i := range win {
		win[i] = make([]int, p)
		for j := range win[i] {
			win[i][j] = total[j]
			total[j] += n(i, j)
		}
	}
	return win, total
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

// Iterate implements sampler.Sampler: a pipelined word phase streaming
// its finished blocks to the row owners, then a pipelined doc phase
// streaming back to the column owners, then the ck allreduce.
func (d *Distributed) Iterate() {
	d.pass.Freeze(d.ck)
	d.exchange(0)
	d.exchange(1)
	clear(d.ck)
	for _, wk := range d.workers {
		for k, v := range wk.CkAcc {
			d.ck[k] += v
		}
	}
}

// exchange runs phase ph (0 word, 1 doc) on every worker at once. Each
// ships its finished blocks straight into its windows of the receivers'
// next slabs, which then become the shards.
func (d *Distributed) exchange(ph int) {
	stride := d.cfg.M + 1
	for j := range d.next {
		d.next[j].resize(d.recv[ph][j], stride)
	}
	var wg sync.WaitGroup
	for i, wk := range d.workers {
		wg.Add(1)
		go func(i int, wk *Worker) {
			defer wg.Done()
			at := slices.Clone(d.win[ph][i])
			err := wk.Phase(d.pass, d.top, &d.shards[i], ph == 0, d.blockTokens, func(o int, b *Slab) error {
				d.next[o].put(at[o], b, stride)
				at[o] += b.Len()
				return nil
			})
			if err != nil {
				panic(err) // every way into the shards checks ownership
			}
		}(i, wk)
	}
	wg.Wait()
	d.shards, d.next = d.next, d.shards
}

// GlobalCounts returns a copy of the replicated ck vector.
func (d *Distributed) GlobalCounts() []int32 { return append([]int32(nil), d.ck...) }

const distStateTag = "dist\x01"

// StateTo implements sampler.Sampler: each worker's token shard (cells
// plus payloads, in shard order), the replicated global counts, and the
// per-worker RNG streams. Shards are laid out in sender order whatever
// the schedule of the exchange, so a run is a function of its seed and a
// sampler restored at the same worker count resumes bit-identically.
func (d *Distributed) StateTo(out io.Writer) error {
	e := sampler.NewEnc(out)
	e.Tag(distStateTag)
	e.Int(d.p)
	e.Int(d.cfg.M)
	e.I32s(d.ck)
	for _, wk := range d.workers {
		e.RNG(wk.R)
	}
	for i := range d.shards {
		e.Int(d.shards[i].Len())
		writeSlab(e, &d.shards[i])
	}
	return e.Err()
}

// RestoreFrom implements sampler.Sampler. The state must come from a
// Distributed sampler with the same corpus, Config, and worker count.
func (d *Distributed) RestoreFrom(in io.Reader) error {
	dec := sampler.NewDec(in)
	dec.Tag(distStateTag)
	p := dec.Int()
	m := dec.Int()
	if dec.Err() == nil && p != d.p {
		return fmt.Errorf("cluster: state has %d workers, sampler has %d", p, d.p)
	}
	if dec.Err() == nil && m != d.cfg.M {
		return fmt.Errorf("cluster: state has M=%d, sampler has M=%d", m, d.cfg.M)
	}
	ck := dec.I32sLen("global counts", d.cfg.K)
	rngs := make([][4]uint64, d.p)
	for i := range rngs {
		rngs[i] = dec.RNGState()
	}
	shards := make([]Slab, d.p)
	total := 0
	stride := d.cfg.M + 1
	for i := 0; i < d.p && dec.Err() == nil; i++ {
		n := dec.Int()
		if dec.Err() != nil {
			break
		}
		if n < 0 || total+n > d.c.NumTokens() {
			return fmt.Errorf("cluster: state shard %d has implausible %d tokens", i, n)
		}
		total += n
		sh := Slab{D: dec.I32sLen("token docs", n), W: dec.I32sLen("token words", n)}
		sh.Data = dec.I32sLen("token payloads", n*stride)
		dec.CheckTopics("token payloads", sh.Data, d.cfg.K)
		if dec.Err() != nil {
			break
		}
		if err := checkCells(&sh, d.c.NumDocs(), d.c.V); err != nil {
			return err
		}
		for _, w := range sh.W {
			if d.top.Cols[w] != int32(i) {
				return fmt.Errorf("cluster: state token of word %d in shard %d, owner is %d", w, i, d.top.Cols[w])
			}
		}
		shards[i] = sh
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if total != d.c.NumTokens() {
		return fmt.Errorf("cluster: state has %d tokens, corpus has %d", total, d.c.NumTokens())
	}
	// The state's (doc, word) multiset must be exactly the corpus —
	// per-cell in-range checks and the total alone would still accept a
	// blob that duplicates one cell's token and drops another's.
	if err := d.validateTokenMultiset(shards); err != nil {
		return err
	}
	// ck must match the assignment histogram.
	count := make([]int32, d.cfg.K)
	for _, sh := range shards {
		for i := 0; i < len(sh.Data); i += stride {
			count[sh.Data[i]]++
		}
	}
	for k := range count {
		if count[k] != ck[k] {
			return fmt.Errorf("cluster: state global counts disagree with assignments at topic %d", k)
		}
	}
	d.shards = shards
	copy(d.ck, ck)
	for i, wk := range d.workers {
		wk.R.SetState(rngs[i])
	}
	return nil
}

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
