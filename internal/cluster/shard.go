// Per-worker shard serialization and elastic restore for Distributed,
// its one state encoding. The methods here implement sampler.Sharded:
// each worker serializes its own token shard — so the checkpoint layer
// can write P files concurrently — and restore accepts ANY saved worker
// count, repartitioning the tokens across the current topology. Worker
// RNG streams survive bit-exactly when the count matches and are
// reseeded via the documented rng.Derive strategy when it does not.
//
// The stream itself is factored out as EncodeWorkerState and
// DecodeWorkerState so the live multi-process mode (internal/dist) can
// put the SAME bytes on the wire: a shard uploaded by a live worker is
// indistinguishable from one written by ShardTo, which is what lets the
// coordinator feed worker uploads straight into RestoreShards and the
// sharded checkpoint files straight back out to workers.
package cluster

import (
	"fmt"
	"io"

	"warplda/internal/rng"
	"warplda/internal/sampler"
)

// shardStateTag versions the per-shard stream layout written by ShardTo.
const shardStateTag = "dshd\x01"

// Compile-time check: Distributed supports sharded elastic checkpoints.
var _ sampler.Sharded = (*Distributed)(nil)

// NumShards implements sampler.Sharded: one shard per worker.
func (d *Distributed) NumShards() int { return d.p }

// WorkerState is one worker's complete mutable state in the sharded
// execution model: its position in the topology, its RNG stream, and
// the tokens it owns. It is the unit both of sharded checkpoints
// (ShardTo / RestoreShards) and of the live mode's shard transfer — the
// coordinator assigns a WorkerState to each joining worker and collects
// one back at every sync point.
type WorkerState struct {
	// Index is the shard's position; Workers the topology's worker count.
	// A shard restored into the wrong slot, or mixed in from a checkpoint
	// of a different topology, is rejected by these before any
	// manifest-level checks run.
	Index   int
	Workers int
	// M is the proposals-per-token count the payloads were written under.
	M int
	// RNGState is the owning worker's RNG stream.
	RNGState [4]uint64
	// Tokens is the shard body, in shard order.
	Tokens Slab
}

// EncodeWorkerState writes st as a dshd stream: the header, then the
// slab's three arrays as the docs, words and payloads sections.
func EncodeWorkerState(w io.Writer, st *WorkerState) error {
	e := sampler.NewEnc(w)
	e.Tag(shardStateTag)
	e.Int(st.Index)
	e.Int(st.Workers)
	e.Int(st.M)
	for _, u := range st.RNGState {
		e.U64(u)
	}
	e.Int(st.Tokens.Len())
	writeSlab(e, &st.Tokens)
	return e.Err()
}

// writeSlab writes the slab's three arrays as I32s sections, each
// streamed in bounded chunks: all P shards serialize concurrently at
// checkpoint time, and encoding a section in one piece would cost a
// byte copy of the whole state exactly when checkpointing a state near
// the memory ceiling.
func writeSlab(e *sampler.Enc, s *Slab) {
	const chunk = 1 << 15
	for _, a := range [][]int32{s.D, s.W, s.Data} {
		e.Int(len(a))
		for ; len(a) > 0; a = a[min(chunk, len(a)):] {
			e.RawI32s(a[:min(chunk, len(a))])
		}
	}
}

// checkCells reports the first token of s whose cell lies outside a
// numDocs × v matrix.
func checkCells(s *Slab, numDocs, v int) error {
	for j, di := range s.D {
		if w := s.W[j]; di < 0 || int(di) >= numDocs || w < 0 || int(w) >= v {
			return fmt.Errorf("cluster: shard token at cell (%d,%d) outside corpus", di, w)
		}
	}
	return nil
}

// DecodeWorkerState reads one dshd stream and validates it structurally
// against the given corpus shape: M must match m, every payload topic
// must be in [0,k), every token cell must lie inside (numDocs, v), and
// the token count must not exceed maxTokens. Cross-shard invariants —
// index/topology agreement, the exact corpus token multiset — are the
// caller's job (RestoreShards, or the coordinator's sync point).
func DecodeWorkerState(r io.Reader, k, m, numDocs, v, maxTokens int) (*WorkerState, error) {
	dec := sampler.NewDec(r)
	dec.Tag(shardStateTag)
	st := &WorkerState{}
	st.Index = dec.Int()
	st.Workers = dec.Int()
	st.M = dec.Int()
	if dec.Err() == nil && st.M != m {
		return nil, fmt.Errorf("cluster: shard has M=%d, sampler has M=%d", st.M, m)
	}
	st.RNGState = dec.RNGState()
	n := dec.Int()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if n < 0 || n > maxTokens {
		return nil, fmt.Errorf("cluster: shard has implausible %d tokens", n)
	}
	st.Tokens.D = dec.I32sLen("token docs", n)
	st.Tokens.W = dec.I32sLen("token words", n)
	st.Tokens.Data = dec.I32sLen("token payloads", n*(m+1))
	dec.CheckTopics("token payloads", st.Tokens.Data, k)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if err := checkCells(&st.Tokens, numDocs, v); err != nil {
		return nil, err
	}
	return st, nil
}

// ShardTo implements sampler.Sharded: worker i's token shard (cells and
// payloads as flat arrays, in shard order) plus its RNG stream. The
// stream deliberately carries the shard index and total worker count,
// so a shard file restored into the wrong slot — or mixed in from a
// checkpoint of a different topology — is rejected by RestoreShards
// even before the manifest-level checks run. Distinct shards may be
// written concurrently: ShardTo only reads worker i's state.
func (d *Distributed) ShardTo(i int, w io.Writer) error {
	if i < 0 || i >= d.p {
		return fmt.Errorf("cluster: shard %d of %d", i, d.p)
	}
	return EncodeWorkerState(w, &WorkerState{
		Index:    i,
		Workers:  d.p,
		M:        d.cfg.M,
		RNGState: d.workers[i].R.State(),
		Tokens:   d.shards[i],
	})
}

// RestoreShards implements sampler.Sharded. shards holds the saved
// per-worker streams in worker order; their count is the topology the
// checkpoint was written under and may differ from this sampler's.
// Tokens are validated (ranges, exact corpus multiset) and then
// repartitioned by the current column partition: with an unchanged
// worker count that reproduces the saved shards byte for byte (the
// greedy partition is deterministic in the corpus and worker count),
// with a changed count it is the rebalancing step. RNG streams are
// restored exactly when the count matches; otherwise every worker w
// reseeds from rng.Derive(cfg.Seed, salt, workers, w) and reseeded
// reports true so the caller can log the loss of bit-exactness. On any
// error the sampler's prior state is untouched.
func (d *Distributed) RestoreShards(salt uint64, shards []io.Reader) (reseeded bool, err error) {
	oldP := len(shards)
	if oldP < 1 {
		return false, fmt.Errorf("cluster: restore with %d shards", oldP)
	}
	states := make([]*WorkerState, oldP)
	all := make([]Slab, oldP)
	total := 0
	for i, r := range shards {
		st, err := DecodeWorkerState(r, d.cfg.K, d.cfg.M, d.c.NumDocs(), d.c.V, d.c.NumTokens()-total)
		if err != nil {
			return false, err
		}
		if st.Index != i {
			return false, fmt.Errorf("cluster: shard in position %d identifies as shard %d (foreign or reordered shard file)", i, st.Index)
		}
		if st.Workers != oldP {
			return false, fmt.Errorf("cluster: shard %d was written under %d workers, restore supplies %d shards", i, st.Workers, oldP)
		}
		total += st.Tokens.Len()
		states[i], all[i] = st, st.Tokens
	}
	if total != d.c.NumTokens() {
		return false, fmt.Errorf("cluster: shards hold %d tokens, corpus has %d", total, d.c.NumTokens())
	}
	if err := d.validateTokenMultiset(all); err != nil {
		return false, err
	}

	// Rebalance: route every token to its owner under the CURRENT column
	// partition. Shard order is preserved within each new owner, so an
	// unchanged topology reproduces the saved shards exactly.
	stride := d.cfg.M + 1
	byCol := make([]Slab, d.p)
	for i := range byCol {
		byCol[i] = makeSlab(d.recv[1][i], stride)
	}
	ck := make([]int32, d.cfg.K)
	for i := range all {
		sh := &all[i]
		for j, w := range sh.W {
			byCol[d.top.Cols[w]].appendToken(sh, j, stride)
			ck[sh.Data[j*stride]]++
		}
	}

	d.shards = byCol
	copy(d.ck, ck)
	if oldP == d.p {
		for i, wk := range d.workers {
			wk.R.SetState(states[i].RNGState)
		}
		return false, nil
	}
	for w, wk := range d.workers {
		wk.R = rng.Derive(d.cfg.Seed, salt, uint64(d.p), uint64(w))
	}
	return true, nil
}

// validateTokenMultiset checks that the tokens' (doc, word) multiset is
// exactly the corpus — per-cell range checks and the total alone would
// still accept a state that duplicates one cell's token and drops
// another's.
func (d *Distributed) validateTokenMultiset(shards []Slab) error {
	cells := make(map[int64]int32, d.c.NumTokens())
	for di, doc := range d.c.Docs {
		for _, w := range doc {
			cells[int64(di)<<32|int64(uint32(w))]++
		}
	}
	for _, sh := range shards {
		for j, di := range sh.D {
			key := int64(di)<<32 | int64(uint32(sh.W[j]))
			if cells[key] == 0 {
				return fmt.Errorf("cluster: state has extra token at cell (%d,%d)", di, sh.W[j])
			}
			cells[key]--
		}
	}
	return nil
}
