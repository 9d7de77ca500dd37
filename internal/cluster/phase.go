// The Section 5.3 worker, shared by the in-process Distributed sampler
// (distributed.go) and the live multi-process worker (internal/dist). A
// worker keeps its shard as one flat Slab laid out by the topology: its
// keys of the phase (words or documents) in key order, each key's tokens
// contiguous — as a column is in core's CSC matrix — and within a key by
// sender, the worker that held them in the phase before, each sender's
// in the order it emitted them. How many tokens a sender emits for a key
// is a constant of the topology, so every producer of a slab writes each
// token once, at its final offset (Next.Put), and the phase runs
// internal/core's phase runs (core.Pass.WordRun / DocRun, the kernels of
// the shared-memory sampler) over the key runs in place. Worker.Phase is
// the one phase driver; the two transports differ only in how a
// finished token reaches its next slab: in Distributed its receiver
// copies its payload there once the phase is done, by an index fixed
// for the topology; the live worker puts its own tokens there and ships
// the others in Block frames, which their receiver puts as it decodes
// them.
package cluster

import (
	"fmt"
	"math"

	"warplda/internal/core"
)

// Slab is a worker's run of tokens: core's slab, the body of a dshd
// stream.
type Slab = core.Slab

// resize sets the slab's length to n tokens, reusing its arrays when
// they are large enough.
func resize(s *Slab, n, stride int) {
	if cap(s.D) < n || cap(s.Data) < n*stride {
		*s = Slab{D: make([]int32, n), W: make([]int32, n), Data: make([]int32, n*stride)}
	}
	s.D, s.W, s.Data = s.D[:n], s.W[:n], s.Data[:n*stride]
}

// Topology is the routing and layout of one worker count: the owner of
// every document (row) and word (column), each key's rank among the keys
// its owner holds, and the layout of every worker's slab in either
// phase. lay[0][o] lays out worker o's word-phase slab (keyed by word;
// the senders are the document owners), lay[1][o] its doc-phase slab
// (keyed by document; the senders are the word owners): lay[ph][o][r*p+s]
// is where sender s's tokens of o's r-th key start, and
// lay[ph][o][r*p+p] where that key ends. A live worker knows the layouts
// of its own slot only.
type Topology struct {
	Rows, Cols       []int32 // owner of each document / word
	p                int
	rowRank, colRank []int32
	lay              [2][][]int32
}

// newTopology ranks the keys of the owner maps rows and cols over p
// workers. The maps are kept, not copied.
func newTopology(rows, cols []int32, p int) (*Topology, [2][]int) {
	var keys [2][]int // keys held per owner: words, documents
	keys[0], keys[1] = make([]int, p), make([]int, p)
	t := &Topology{Rows: rows, Cols: cols, p: p}
	t.colRank = rank(cols, keys[0])
	t.rowRank = rank(rows, keys[1])
	t.lay = [2][][]int32{make([][]int32, p), make([][]int32, p)}
	return t, keys
}

// NewTopology ranks the keys of rows and cols over p workers and lays
// out every worker's slabs for the corpus docs.
func NewTopology(rows, cols []int32, p int, docs [][]int32) *Topology {
	t, keys := newTopology(rows, cols, p)
	for ph := range t.lay {
		for o := range t.lay[ph] {
			t.lay[ph][o] = make([]int32, keys[ph][o]*p+1)
		}
	}
	// Count one past each region, then sum: each entry becomes the
	// region's start.
	for d, doc := range docs {
		for _, w := range doc {
			t.lay[0][cols[w]][int(t.colRank[w])*p+int(rows[d])+1]++
			t.lay[1][rows[d]][int(t.rowRank[d])*p+int(cols[w])+1]++
		}
	}
	for ph := range t.lay {
		for _, at := range t.lay[ph] {
			for c := 1; c < len(at); c++ {
				at[c] += at[c-1]
			}
		}
	}
	return t
}

// NewSlotTopology is the topology as the worker in slot of p sees it:
// the owner maps, and the layouts of its own slabs from how many tokens
// of each of its keys each sender sends it — words[r*p+s] of its r-th
// word from sender s, docs likewise. It fails on an owner outside the p
// workers, on counts of the wrong length, on negative counts, and on
// counts of a slab that sum past maxTokens.
func NewSlotTopology(rows, cols []int32, p, slot int, words, docs []int32, maxTokens int) (*Topology, error) {
	if slot < 0 || slot >= p {
		return nil, fmt.Errorf("cluster: slot %d of %d workers", slot, p)
	}
	for _, owners := range [][]int32{rows, cols} {
		for _, o := range owners {
			if o < 0 || int(o) >= p {
				return nil, fmt.Errorf("cluster: owner %d outside %d workers", o, p)
			}
		}
	}
	maxTokens = min(maxTokens, math.MaxInt32)
	t, keys := newTopology(rows, cols, p)
	for ph, counts := range [2][]int32{words, docs} {
		if want := keys[ph][slot] * p; len(counts) != want {
			return nil, fmt.Errorf("cluster: %d layout counts for phase %d, want %d", len(counts), ph, want)
		}
		at := make([]int32, len(counts)+1)
		for c, n := range counts {
			if n < 0 || int64(at[c])+int64(n) > int64(maxTokens) {
				return nil, fmt.Errorf("cluster: layout count %d in phase %d is negative or passes %d tokens", n, ph, maxTokens)
			}
			at[c+1] = at[c] + n
		}
		t.lay[ph][slot] = at
	}
	return t, nil
}

// Counts returns how many tokens of each of slot's words and documents
// each sender sends it: the argument of NewSlotTopology.
func (t *Topology) Counts(slot int) (words, docs []int32) {
	counts := func(at []int32) []int32 {
		n := make([]int32, len(at)-1)
		for c := range n {
			n[c] = at[c+1] - at[c]
		}
		return n
	}
	return counts(t.lay[0][slot]), counts(t.lay[1][slot])
}

// Size returns the token count of slot's slab in phase ph (0 word,
// 1 doc).
func (t *Topology) Size(ph, slot int) int {
	at := t.lay[ph][slot]
	return int(at[len(at)-1])
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

// Next is a worker's slab for a phase while the exchange fills it. Put
// writes each token at its final offset, so when every region is full
// (Full) the slab is laid out for the phase.
type Next struct {
	Slab
	slot, p, stride int
	byDoc           bool    // keyed by document (the doc phase) or by word
	owner, rank     []int32 // of every key
	at              []int32 // the layout, Topology.lay[ph][slot]
	cur             []int32 // per (key rank, sender): the next offset to write
	filled          int     // tokens put
}

// Reset empties n for slot's slab in phase ph (0 word, 1 doc) of top,
// with stride int32 of payload per token, reusing its arrays.
func (n *Next) Reset(top *Topology, ph, slot, stride int) {
	n.slot, n.p, n.stride, n.byDoc = slot, top.p, stride, ph == 1
	n.owner, n.rank = top.Cols, top.colRank
	if n.byDoc {
		n.owner, n.rank = top.Rows, top.rowRank
	}
	n.at = top.lay[ph][slot]
	n.cur = append(n.cur[:0], n.at[:len(n.at)-1]...)
	n.filled = 0
	resize(&n.Slab, top.Size(ph, slot), stride)
}

// Put writes token i of src, sent by sender from, at its final offset,
// and returns the offset. It fails, writing nothing, on a key another
// worker owns and on a sender whose region of the key is already full.
func (n *Next) Put(from int, src *Slab, i int) (int32, error) {
	key := src.W[i]
	if n.byDoc {
		key = src.D[i]
	}
	if int(n.owner[key]) != n.slot {
		return 0, fmt.Errorf("cluster: worker %d was sent a token of key %d, owner is %d", n.slot, key, n.owner[key])
	}
	if uint(from) >= uint(n.p) {
		return 0, fmt.Errorf("cluster: worker %d was sent a token by sender %d of %d", n.slot, from, n.p)
	}
	c := int(n.rank[key])*n.p + from
	j := n.cur[c]
	if j == n.at[c+1] {
		return 0, fmt.Errorf("cluster: sender %d overfills key %d of worker %d", from, key, n.slot)
	}
	n.cur[c], n.filled = j+1, n.filled+1
	s := n.stride
	n.D[j], n.W[j] = src.D[i], src.W[i]
	copy(n.Data[int(j)*s:(int(j)+1)*s], src.Data[i*s:(i+1)*s])
	return j, nil
}

// Full fails unless every sender has filled its region of every key:
// no region takes more than its share, so the slab is full once every
// offset is written.
func (n *Next) Full() error {
	if n.filled != n.Len() {
		return fmt.Errorf("cluster: worker %d is missing %d of its %d tokens", n.slot, n.Len()-n.filled, n.Len())
	}
	return nil
}

// Worker is one Section 5.3 worker: core's phase-run scratch, whose
// runs key their draws by word or document (core.Pass), and its
// contribution to the next global topic counts.
type Worker struct {
	*core.Worker
	// CkAcc is the histogram of the assignments the last doc phase left
	// behind; the per-pass allreduce sums it across workers.
	CkAcc []int32

	slot, stride int
	ident        []int32 // 0, 1, 2, …: see rowIndex
}

// NewWorker returns the worker in slot for k topics and m proposals per
// token.
func NewWorker(slot, k, m int) *Worker {
	return &Worker{
		Worker: core.NewWorker(k),
		CkAcc:  make([]int32, k),
		slot:   slot,
		stride: m + 1,
	}
}

// Phase runs one phase over the worker's slab sh, laid out by top for
// the phase: the word phase (word true) runs each word's tokens, the doc
// phase each document's and leaves the histogram of the new assignments
// in CkAcc. Unless put is nil it hands every finished token to put with
// its next owner — the word phase routes to the document's owner, the
// doc phase to the word's — as each key's run finishes, in slab order,
// so each sender's tokens of a key reach their receiver in emission
// order. Phase fails with the first error of put.
func (wk *Worker) Phase(pass *core.Pass, top *Topology, sh *Slab, word bool, put func(o int, sh *Slab, i int) error) error {
	ph, dest, route := 1, top.Cols, sh.W
	if word {
		ph, dest, route = 0, top.Rows, sh.D
	} else {
		clear(wk.CkAcc)
	}
	at, p, s := top.lay[ph][wk.slot], top.p, wk.stride
	for r := p; r < len(at); r += p {
		lo, hi := int(at[r-p]), int(at[r])
		if lo == hi {
			continue
		}
		if data := sh.Data[lo*s : hi*s]; word {
			pass.WordRun(wk.Worker, int(sh.W[lo]), data, nil, s)
		} else {
			pass.DocRun(wk.Worker, int(sh.D[lo]), data, wk.rowIndex(hi-lo), s, wk.CkAcc)
		}
		if put == nil {
			continue
		}
		for i := lo; i < hi; i++ {
			if err := put(int(dest[route[i]]), sh, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// WordTerms adds the word terms of the log joint of the worker's slab
// sh, laid out by top for the word phase, to its sum: one sequential
// pass over its word runs (core.Pass.WordTerms).
func (wk *Worker) WordTerms(pass *core.Pass, top *Topology, sh *Slab) {
	at, p, s := top.lay[0][wk.slot], top.p, wk.stride
	for r := p; r < len(at); r += p {
		if lo, hi := int(at[r-p]), int(at[r]); lo < hi {
			pass.WordTerms(wk.Worker, sh.Data[lo*s:hi*s], s)
		}
	}
}

// rowIndex returns 0, 1, …, n-1: a key's tokens as the row index
// through which DocRun's positioning draw picks a token.
func (wk *Worker) rowIndex(n int) []int32 {
	for i := len(wk.ident); i < n; i++ {
		wk.ident = append(wk.ident, int32(i))
	}
	return wk.ident[:n]
}
