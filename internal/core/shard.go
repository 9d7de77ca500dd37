// The shard stream of both WarpLDA samplers, and core.Warp's side of it.
// A dshd stream is one worker's complete state: its place in the
// topology and its tokens, each with its cell (document, word) and
// payload. No generator state is saved: every run of a pass reseeds from
// its key (kernel.go), so the tokens and the iteration a checkpoint is
// at determine the rest of the run. Warp writes a worker's doc-phase rows;
// cluster.Distributed and the live workers write the tokens a worker
// holds. Any shard set of either sampler, under any worker count,
// restores into either: DecodeShards checks the set as a whole, and each
// sampler places the tokens its own way.
package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// shardTag versions the shard stream layout (docs/FORMATS.md).
// legacyShardTag is the layout before it, whose header also held the
// worker's RNG state; it is refused by name.
const (
	shardTag       = "dshd\x02"
	legacyShardTag = "dshd\x01"
)

// Slab is a run of tokens as three flat arrays, in the section order of
// the dshd stream: token i sits at cell (D[i], W[i]) of the D×V matrix
// and owns the payload Data[i*(1+M):(i+1)*(1+M)], its assignment
// followed by its M pending proposals.
type Slab struct {
	D, W, Data []int32
}

// Len returns the number of tokens.
func (s *Slab) Len() int { return len(s.D) }

// Append appends every token of o.
func (s *Slab) Append(o Slab) {
	s.D = append(s.D, o.D...)
	s.W = append(s.W, o.W...)
	s.Data = append(s.Data, o.Data...)
}

// Reset empties the slab and keeps its capacity.
func (s *Slab) Reset() { s.D, s.W, s.Data = s.D[:0], s.W[:0], s.Data[:0] }

// WorkerState is one worker's complete mutable state: its position in
// the topology and the tokens it owns. It is the unit
// both of sharded checkpoints (ShardTo / RestoreShards) and of the live
// mode's shard transfer — the coordinator assigns a WorkerState to each
// joining worker and collects one back at every sync point.
type WorkerState struct {
	// Index is the shard's position, Workers the topology's worker
	// count: a shard in the wrong slot or from another topology fails on
	// these before any manifest-level check.
	Index   int
	Workers int
	// M is the proposals-per-token count the payloads were written under.
	M int
	// Tokens is the shard body, in shard order.
	Tokens Slab
}

// shardChunk bounds the bytes a shard writer buffers: all shards of a
// checkpoint serialize concurrently, and a section encoded in one piece
// would copy the whole state exactly when checkpointing a state near
// the memory ceiling.
const shardChunk = 1 << 17

// shardWriter writes a dshd stream through a one-chunk buffer, in
// sampler.Enc's little-endian layout without its per-call conversion.
type shardWriter struct {
	out io.Writer
	buf []byte
	err error
}

// newShardWriter writes the header of st's stream of n tokens.
func newShardWriter(out io.Writer, st *WorkerState, n int) *shardWriter {
	s := &shardWriter{out: out, buf: append(make([]byte, 0, shardChunk), shardTag...)}
	for _, v := range []int{st.Index, st.Workers, st.M, n} {
		s.int(v)
	}
	return s
}

// int appends an int64: a header field or a section's length.
func (s *shardWriter) int(v int) {
	if len(s.buf)+8 > cap(s.buf) {
		s.flush()
	}
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(v))
}

// put appends a section value.
func (s *shardWriter) put(x int32) {
	if len(s.buf)+4 > cap(s.buf) {
		s.flush()
	}
	s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(x))
}

// flush writes the buffer out and returns the first write error.
func (s *shardWriter) flush() error {
	if s.err == nil {
		_, s.err = s.out.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}

// EncodeWorkerState writes st as a dshd stream: the header, then the
// slab's three arrays as the docs, words and payloads sections.
func EncodeWorkerState(w io.Writer, st *WorkerState) error {
	t := &st.Tokens
	sw := newShardWriter(w, st, t.Len())
	for _, a := range [][]int32{t.D, t.W, t.Data} {
		sw.int(len(a))
		for _, x := range a {
			sw.put(x)
		}
	}
	return sw.flush()
}

// DecodeWorkerState reads one dshd stream and validates it structurally
// against the given corpus shape: M must match m, every payload topic
// must be in [0,k), every token cell must lie inside (numDocs, v), and
// the token count must not exceed maxTokens. Cross-shard invariants —
// index/topology agreement, the exact corpus token multiset — are
// DecodeShards' (or, on the wire, the coordinator's sync point's). A
// stream of the legacy layout is refused with the way to upgrade it.
func DecodeWorkerState(r io.Reader, k, m, numDocs, v, maxTokens int) (*WorkerState, error) {
	tag := make([]byte, len(shardTag))
	if _, err := io.ReadFull(r, tag); err != nil {
		return nil, fmt.Errorf("core: reading shard tag: %w", err)
	}
	switch string(tag) {
	case shardTag:
	case legacyShardTag:
		return nil, fmt.Errorf("core: shard stream %q holds per-worker RNG state, which this version no longer reads: resume the run with the last version that reads %q, a build of commit d5d0b8b", tag, tag)
	default:
		return nil, fmt.Errorf("core: shard tag %q, want %q (state saved by a different sampler or version)", tag, shardTag)
	}
	dec := sampler.NewDec(r)
	st := &WorkerState{Index: dec.Int(), Workers: dec.Int(), M: dec.Int()}
	if dec.Err() == nil && st.M != m {
		dec.Failf("core: shard has M=%d, sampler has M=%d", st.M, m)
	}
	n := dec.Int()
	if dec.Err() == nil && (n < 0 || n > maxTokens) {
		dec.Failf("core: shard has implausible %d tokens", n)
	}
	st.Tokens = Slab{D: dec.I32sLen("token docs", n), W: dec.I32sLen("token words", n)}
	st.Tokens.Data = dec.I32sLen("token payloads", n*(m+1))
	dec.CheckTopics("token payloads", st.Tokens.Data, k)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	for j, di := range st.Tokens.D {
		if w := st.Tokens.W[j]; di < 0 || int(di) >= numDocs || w < 0 || int(w) >= v {
			return nil, fmt.Errorf("core: shard token at cell (%d,%d) outside corpus", di, w)
		}
	}
	return st, nil
}

// DecodeShards reads a shard set — one checkpoint's streams in shard
// order, from either WarpLDA sampler under any worker count — and checks
// it whole before the caller commits anything: each stream as
// DecodeWorkerState does, each in its own slot of one topology, all
// tokens exactly the corpus's multiset. Token j of the set takes word
// pos[j] of its document as c.Doc lists them, the k-th token of a
// (d, w) cell the cell's k-th occurrence.
func DecodeShards(cfg sampler.Config, c corpus.Provider, shards []io.Reader) (states []*WorkerState, pos []int32, err error) {
	if len(shards) < 1 {
		return nil, nil, fmt.Errorf("core: restore with %d shards", len(shards))
	}
	left := c.NumTokens()
	for i, r := range shards {
		st, err := DecodeWorkerState(r, cfg.K, cfg.M, c.NumDocs(), c.NumWords(), left)
		if err == nil && (st.Index != i || st.Workers != len(shards)) {
			err = fmt.Errorf("core: shard in position %d of %d identifies as shard %d of %d (foreign or reordered shard file)", i, len(shards), st.Index, st.Workers)
		}
		if err != nil {
			return nil, nil, err
		}
		left -= st.Tokens.Len()
		states = append(states, st)
	}
	pos, err = matchTokens(states, c.NumDocs(), c.NumWords(), c.Doc)
	return states, pos, err
}

// matchTokens checks that the tokens of states are exactly the cells of
// the numDocs documents words lists, and returns each token's place in
// its document. Tokens are grouped by document (a stable counting sort);
// within one, head[w] and next chain word w's unclaimed occurrences in
// order, and each token claims its word's first. Equal counts per
// document and no token left unmatched make the multisets equal.
func matchTokens(states []*WorkerState, numDocs, v int, words func(int) []int32) ([]int32, error) {
	start, off := make([]int32, numDocs+2), make([]int32, len(states)+1)
	for s, st := range states {
		off[s+1] = off[s] + int32(st.Tokens.Len())
		for _, d := range st.Tokens.D {
			start[d+2]++
		}
	}
	for d := 2; d < len(start); d++ {
		start[d] += start[d-1]
	}
	// Token indices grouped by document: start[d+1] is document d's fill
	// cursor, and once every token is placed, its end. Token j is token
	// j-off[s] of states[s].
	n, s := off[len(states)], 0
	byDoc := make([]int32, n)
	for si, st := range states {
		for i, d := range st.Tokens.D {
			byDoc[start[d+1]] = off[si] + int32(i)
			start[d+1]++
		}
	}
	pos, head, next := make([]int32, n), make([]int32, v), []int32(nil)
	for w := range head {
		head[w] = -1
	}
	for d := 0; d < numDocs; d++ {
		doc, lo, hi := words(d), start[d], start[d+1]
		if int(hi-lo) != len(doc) {
			return nil, fmt.Errorf("core: shards hold %d tokens of document %d, corpus has %d", hi-lo, d, len(doc))
		}
		next = append(next[:0], doc...) // sized to doc; every slot is set below
		for t := len(doc) - 1; t >= 0; t-- {
			next[t], head[doc[t]] = head[doc[t]], int32(t)
		}
		for _, j := range byDoc[lo:hi] {
			for j < off[s] || j >= off[s+1] {
				s = (s + 1) % len(states)
			}
			w := states[s].Tokens.W[j-off[s]]
			t := head[w]
			if t < 0 {
				return nil, fmt.Errorf("core: state has extra token at cell (%d,%d)", d, w)
			}
			pos[j], head[w] = t, next[t]
		}
	}
	return pos, nil
}

// NumShards implements sampler.Sharded: one shard per worker, one
// included.
func (w *Warp) NumShards() int { return len(w.workers) }

// ShardTo implements sampler.Sharded: worker i's doc-phase rows in row
// order as a dshd stream. The document section is each row id repeated
// and the words section each row's document as the corpus holds it (a
// row keeps its document's token order), so only the payloads section
// reads the matrix. Distinct shards may be written concurrently:
// ShardTo only reads frozen state.
func (w *Warp) ShardTo(i int, out io.Writer) error {
	if i < 0 || i >= len(w.workers) {
		return fmt.Errorf("core: shard %d of %d", i, len(w.workers))
	}
	wk, n := w.workers[i], 0
	for _, rg := range wk.rowChunks {
		for row := rg[0]; row < rg[1]; row++ {
			n += w.m.RowOf(row).Len()
		}
	}
	sw := newShardWriter(out, &WorkerState{Index: i, Workers: len(w.workers), M: w.cfg.M}, n)
	for sec, width := range []int{1, 1, w.cfg.M + 1} {
		sw.int(n * width)
		for _, rg := range wk.rowChunks {
			for row := rg[0]; row < rg[1]; row++ {
				switch sec {
				case 0:
					for t := w.m.RowOf(row).Len(); t > 0; t-- {
						sw.put(int32(row))
					}
				case 1:
					for _, x := range w.c.Doc(row) {
						sw.put(x)
					}
				default:
					for v, t := w.m.RowOf(row), 0; t < v.Len(); t++ {
						for _, x := range v.Data(t) {
							sw.put(x)
						}
					}
				}
			}
		}
	}
	return sw.flush()
}

// RestoreShards implements sampler.Sharded for the streams of either
// WarpLDA sampler under any worker count, taken after iter passes.
// DecodeShards validates the whole set before any live state is
// replaced; each token's payload then goes to the CSC entry of the row
// position it was matched to. The coming pass is pass iter, so the run
// continues exactly as an uninterrupted one at any thread count.
func (w *Warp) RestoreShards(iter int, shards []io.Reader) error {
	states, pos, err := DecodeShards(w.cfg, w.c, shards)
	if err != nil {
		return err
	}
	// Commit: payloads, and the global counts recomputed from the
	// restored assignments.
	stride, j := w.cfg.M+1, 0
	clear(w.ck)
	for _, st := range states {
		for i, d := range st.Tokens.D {
			p := st.Tokens.Data[i*stride : (i+1)*stride]
			copy(w.m.Payloads()[w.m.RowOf(int(d)).EntryIndex(int(pos[j]))*stride:], p)
			w.ck[p[0]]++
			j++
		}
	}
	w.pass.Freeze(w.ck)
	w.pass.SetIteration(iter)
	w.summed = false
	return nil
}
