package cluster

import (
	"fmt"
	"io"
	"sync"

	"warplda/internal/corpus"
	"warplda/internal/rng"
	"warplda/internal/sampler"
	"warplda/internal/sparse"
	"warplda/internal/tcount"
)

// Token is one token's record in the sharded representation: its cell in
// the D×V matrix plus the payload (assignment z followed by M proposals).
type Token struct {
	D, W int32
	Data []int32
}

// Distributed runs WarpLDA with *physically sharded* state, the actual
// execution model of Section 5.3: each of P workers owns a disjoint set
// of token entries; the word phase runs with entries partitioned by
// column owner, the doc phase with entries partitioned by row owner, and
// between unlike phases every off-diagonal block is shipped to its next
// owner over channels (the in-process MPI_Ialltoall). The only replicated
// state is the K-dim global count vector, allreduced once per iteration —
// exactly the paper's claim that nothing else is shared.
//
// Distributed and core.Warp implement the same algorithm; core.Warp is
// the optimized shared-memory path, Distributed the sharded path whose
// convergence the Figure 6 / 9 experiments rely on. The phase bodies
// themselves live in phase.go and are shared with the live multi-process
// mode (internal/dist), which replaces the channels with TCP.
type Distributed struct {
	cfg  sampler.Config
	c    *corpus.Corpus
	p    int
	cols *sparse.Partition
	rows *sparse.Partition

	// byCol[i] holds worker i's tokens, grouped for the word phase.
	byCol [][]Token
	ck    []int32

	// rowTokens/colTokens are the exact token counts each worker owns in
	// the doc and word phase respectively — known from the partition, and
	// used to pre-size the receive buffers of the block exchange.
	rowTokens []int64
	colTokens []int64

	// blockTokens is the send-block granularity of the pipelined
	// exchange: Section 5.3.2 divides each partition into B×B blocks
	// (B ∈ [2,10]) so finished blocks ship while later ones compute.
	blockTokens int

	workers []*PhaseWorker

	// Assignments regroup scratch, built lazily on first call and reused
	// by every later one (the eval loop calls Assignments every reporting
	// interval; rebuilding a tokens-sized map each time dominated eval).
	asgBuf   [][]int32
	docOff   []int     // cumulative doc offsets into the flat gather buffers
	docOrder [][]int32 // per doc, token positions ordered by word id
	gw, gz   []int32   // per-call (word, topic) gather buffers, len NumTokens
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
	d := &Distributed{cfg: cfg, c: c, p: p, ck: make([]int32, cfg.K)}

	tf := c.TermFrequencies()
	d.cols = sparse.GreedyPartition(tf, p)
	dl := make([]int, c.NumDocs())
	for di, doc := range c.Docs {
		dl[di] = len(doc)
	}
	d.rows = sparse.GreedyPartition(dl, p)
	d.rowTokens = d.rows.Loads(dl)
	d.colTokens = d.cols.Loads(tf)

	// Shard tokens by column owner with random initial assignments.
	r := rng.New(cfg.Seed)
	d.byCol = make([][]Token, p)
	for i := range d.byCol {
		d.byCol[i] = make([]Token, 0, d.colTokens[i])
	}
	for di, doc := range c.Docs {
		for _, w := range doc {
			z := int32(r.Intn(cfg.K))
			data := make([]int32, cfg.M+1)
			for j := range data {
				data[j] = z
			}
			d.ck[z]++
			owner := d.cols.Assign[w]
			d.byCol[owner] = append(d.byCol[owner], Token{D: int32(di), W: w, Data: data})
		}
	}

	// B = 5 blocks per partition side (the middle of the paper's [2,10]).
	d.blockTokens = BlockTokens(c.NumTokens(), p)

	d.workers = make([]*PhaseWorker, p)
	for i := range d.workers {
		d.workers[i] = NewPhaseWorker(cfg.K, r.Split())
	}
	return d, nil
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
	return d.rows.Assign, d.cols.Assign
}

// Iterate implements sampler.Sampler: a pipelined word phase streaming
// its finished blocks to the row owners, then a pipelined doc phase
// streaming back to the column owners, then the ck allreduce.
func (d *Distributed) Iterate() {
	env := &PhaseEnv{Cfg: d.cfg, V: d.c.V, CK: d.ck}

	// --- Word phase, overlapped with the col→row exchange ---
	byRow := d.phaseAndExchange(d.byCol, false, d.rowTokens,
		func(wk *PhaseWorker, group []Token) { env.WordGroup(wk, group) },
		func(t Token) int32 { return d.rows.Assign[t.D] })

	// --- Doc phase, overlapped with the row→col exchange ---
	for _, wk := range d.workers {
		clear(wk.CkAcc)
	}
	d.byCol = d.phaseAndExchange(byRow, true, d.colTokens,
		func(wk *PhaseWorker, group []Token) { env.DocGroup(wk, group) },
		func(t Token) int32 { return d.cols.Assign[t.W] })

	// --- Allreduce ck ---
	clear(d.ck)
	for _, wk := range d.workers {
		for k, v := range wk.CkAcc {
			d.ck[k] += v
		}
	}
}

// phaseAndExchange runs one phase with the Section 5.3.2 overlap: each
// worker processes its shard group by group and ships tokens to their
// next owner in blocks of blockTokens as soon as the block fills, while
// the remaining groups are still being computed. Receivers drain their
// channels concurrently; channels close when every sender is done. A
// receiver keeps the blocks apart by sender and lays them out in sender
// order afterwards, so its shard does not depend on how the senders'
// blocks interleaved on the channel and a run is a function of the seed.
func (d *Distributed) phaseAndExchange(shards [][]Token, byRow bool, recvTokens []int64,
	process func(wk *PhaseWorker, group []Token), owner func(Token) int32) [][]Token {

	type block struct {
		from   int
		tokens []Token
	}
	chans := make([]chan block, d.p)
	for i := range chans {
		chans[i] = make(chan block, 2*d.p)
	}

	var senders sync.WaitGroup
	for i, wk := range d.workers {
		senders.Add(1)
		go func(i int, wk *PhaseWorker) {
			defer senders.Done()
			GroupSort(shards[i], byRow)
			buckets := make([][]Token, d.p)
			ForGroups(shards[i], byRow, func(group []Token) {
				process(wk, group)
				// Route the finished group's tokens; full blocks ship now.
				for _, t := range group {
					o := owner(t)
					buckets[o] = append(buckets[o], t)
					if len(buckets[o]) >= d.blockTokens {
						chans[o] <- block{i, buckets[o]}
						buckets[o] = nil
					}
				}
			})
			for o, b := range buckets {
				if len(b) > 0 {
					chans[o] <- block{i, b}
				}
			}
		}(i, wk)
	}
	go func() {
		senders.Wait()
		for _, ch := range chans {
			close(ch)
		}
	}()

	out := make([][]Token, d.p)
	var receivers sync.WaitGroup
	for i := 0; i < d.p; i++ {
		receivers.Add(1)
		go func(i int) {
			defer receivers.Done()
			bySender := make([][][]Token, d.p)
			for b := range chans[i] {
				bySender[b.from] = append(bySender[b.from], b.tokens)
			}
			// Pre-sized from the destination partition's known token count.
			out[i] = make([]Token, 0, recvTokens[i])
			for _, blocks := range bySender {
				for _, b := range blocks {
					out[i] = append(out[i], b...)
				}
			}
		}(i)
	}
	receivers.Wait()
	return out
}

func resetCounter(c tcount.Counter, k, l int) {
	if h, ok := c.(*tcount.Hash); ok {
		h.ResetFor(k, l)
		return
	}
	c.Reset()
}

// GlobalCounts returns a copy of the replicated ck vector.
func (d *Distributed) GlobalCounts() []int32 { return append([]int32(nil), d.ck...) }

const distStateTag = "dist\x01"

// StateTo implements sampler.Sampler: each worker's token shard (cells
// plus payloads, in shard order), the replicated global counts, and the
// per-worker RNG streams. Shards are laid out in sender order whatever
// the interleaving of the block exchange (phaseAndExchange), so a run is
// a function of its seed and a sampler restored at the same worker count
// resumes bit-identically.
func (d *Distributed) StateTo(out io.Writer) error {
	e := sampler.NewEnc(out)
	e.Tag(distStateTag)
	e.Int(d.p)
	e.Int(d.cfg.M)
	e.I32s(d.ck)
	for _, wk := range d.workers {
		e.RNG(wk.R)
	}
	// Each shard as three flat arrays (cells then payloads) rather than
	// per-token slices: at millions of tokens, per-token framing would
	// dominate both the allocation count and the file size.
	var ds, ws, payload []int32
	for _, shard := range d.byCol {
		e.Int(len(shard))
		ds, ws, payload = ds[:0], ws[:0], payload[:0]
		for _, t := range shard {
			ds = append(ds, t.D)
			ws = append(ws, t.W)
			payload = append(payload, t.Data...)
		}
		e.I32s(ds)
		e.I32s(ws)
		e.I32s(payload)
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
	byCol := make([][]Token, d.p)
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
		ds := dec.I32sLen("token docs", n)
		ws := dec.I32sLen("token words", n)
		payload := dec.I32sLen("token payloads", n*stride)
		dec.CheckTopics("token payloads", payload, d.cfg.K)
		if dec.Err() != nil {
			break
		}
		shard := make([]Token, n)
		for j := 0; j < n; j++ {
			di, w := ds[j], ws[j]
			if di < 0 || int(di) >= d.c.NumDocs() || w < 0 || int(w) >= d.c.V {
				return fmt.Errorf("cluster: state token at cell (%d,%d) outside corpus", di, w)
			}
			if d.cols.Assign[w] != int32(i) {
				return fmt.Errorf("cluster: state token of word %d in shard %d, owner is %d", w, i, d.cols.Assign[w])
			}
			shard[j] = Token{D: di, W: w, Data: payload[j*stride : (j+1)*stride : (j+1)*stride]}
		}
		byCol[i] = shard
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
	if err := d.validateTokenMultiset(byCol); err != nil {
		return err
	}
	// ck must match the assignment histogram.
	count := make([]int32, d.cfg.K)
	for _, shard := range byCol {
		for _, t := range shard {
			count[t.Data[0]]++
		}
	}
	for k := range count {
		if count[k] != ck[k] {
			return fmt.Errorf("cluster: state global counts disagree with assignments at topic %d", k)
		}
	}
	d.byCol = byCol
	copy(d.ck, ck)
	for i, wk := range d.workers {
		wk.R.SetState(rngs[i])
	}
	return nil
}

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
		order := make([]int32, len(doc))
		words := append([]int32(nil), doc...)
		for n := range order {
			order[n] = int32(n)
		}
		sortByWord(words, order)
		d.docOrder[di] = order
	}
	total := d.docOff[nd]
	d.gw = make([]int32, total)
	d.gz = make([]int32, total)
}

// Assignments implements sampler.Sampler. Tokens are scrambled across
// shards, so assignments are regrouped per (doc, word) cell; within a
// cell topics are interchangeable, which keeps the log joint likelihood
// well defined. The regroup is a gather into flat per-doc windows plus
// a by-word sort against each document's precomputed word order — all
// scratch is allocated once and reused, so the eval loop's periodic
// calls cost no steady-state allocation.
func (d *Distributed) Assignments() [][]int32 {
	if d.asgBuf == nil {
		d.initAssignmentScratch()
	}
	clear(d.fill)
	for _, shard := range d.byCol {
		for _, t := range shard {
			slot := d.docOff[t.D] + int(d.fill[t.D])
			d.fill[t.D]++
			d.gw[slot], d.gz[slot] = t.W, t.Data[0]
		}
	}
	for di := range d.asgBuf {
		lo, hi := d.docOff[di], d.docOff[di+1]
		sortByWord(d.gw[lo:hi], d.gz[lo:hi])
		out, ord := d.asgBuf[di], d.docOrder[di]
		for j := range out {
			out[ord[j]] = d.gz[lo+j]
		}
	}
	return d.asgBuf
}
