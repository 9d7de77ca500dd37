// Per-worker shard serialization and elastic restore for Warp.
//
// StateTo/RestoreFrom (warp.go) funnel the whole state through one
// stream and demand an identical worker count on resume. The methods
// here implement sampler.Sharded, mirroring the distributed
// sampler's semantics (internal/cluster/shard.go) for the shared-memory
// sampler: each worker serializes the documents it owns in the doc
// phase, and restore accepts ANY saved worker count, because the token
// payloads are keyed by document id rather than by the partition that
// produced them. Worker RNG streams survive bit-exactly when the thread
// count matches (the chunk schedule is deterministic in corpus and
// Config) and are reseeded via rng.Derive when it does not.
package core

import (
	"fmt"
	"io"

	"warplda/internal/rng"
	"warplda/internal/sampler"
)

// warpShardTag versions the per-shard stream layout written by ShardTo.
const warpShardTag = "wshd\x01"

// Compile-time check: Warp supports sharded elastic checkpoints.
var _ sampler.Sharded = (*Warp)(nil)

// NumShards implements sampler.Sharded: one shard per worker. A
// single-threaded Warp is a valid one-shard topology, so every Warp
// checkpoint written through the sharded path can later be resumed
// under any thread count.
func (w *Warp) NumShards() int { return len(w.workers) }

// ShardTo implements sampler.Sharded: worker i's doc-phase row ranges
// and the token payloads of every document in them, plus its RNG
// stream. The stream carries the shard index and total worker count, so
// a shard file restored into the wrong slot — or mixed in from a
// checkpoint of a different topology — is rejected by RestoreShards
// even before the manifest-level checks run. Distinct shards may be
// written concurrently: ShardTo only reads frozen state and worker i's
// RNG.
func (w *Warp) ShardTo(i int, out io.Writer) error {
	if i < 0 || i >= len(w.workers) {
		return fmt.Errorf("core: shard %d of %d", i, len(w.workers))
	}
	wk := w.workers[i]
	e := sampler.NewEnc(out)
	e.Tag(warpShardTag)
	e.Int(i)
	e.Int(len(w.workers))
	e.Int(w.cfg.M)
	e.RNG(wk.R)
	e.Int(len(wk.rowChunks))
	stride := w.cfg.M + 1
	total := 0
	for _, rg := range wk.rowChunks {
		e.Int(rg[0])
		e.Int(rg[1])
		for row := rg[0]; row < rg[1]; row++ {
			total += w.m.RowOf(row).Len() * stride
		}
	}
	// The payload section is streamed in bounded chunks rather than
	// materialized: all shards may serialize concurrently, so per-shard
	// flat copies would cost a full extra state-sized allocation exactly
	// when checkpointing a state near the memory ceiling.
	e.Int(total) // I32s-compatible length prefix
	const chunk = 1 << 15
	buf := make([]int32, 0, chunk)
	for _, rg := range wk.rowChunks {
		for row := rg[0]; row < rg[1]; row++ {
			v := w.m.RowOf(row)
			for t := 0; t < v.Len(); t++ {
				if len(buf)+stride > chunk {
					e.RawI32s(buf)
					buf = buf[:0]
				}
				buf = append(buf, v.Data(t)...)
			}
		}
	}
	if len(buf) > 0 {
		e.RawI32s(buf)
	}
	return e.Err()
}

// RestoreShards implements sampler.Sharded. shards holds the saved
// per-worker streams in worker order; their count is the topology the
// checkpoint was written under and may differ from this sampler's
// Threads. The decoded row ranges must tile the corpus exactly — every
// document once, no overlap — and each document's payloads land at the
// positions the (immutable) matrix structure assigns them, so the
// restored state is independent of which worker owned which rows.
// Everything is validated before any live state is replaced. RNG
// streams are restored exactly when the worker count matches (the
// chunk schedule is deterministic in corpus and Config); otherwise
// every worker wi reseeds from rng.Derive(cfg.Seed, salt, threads, wi)
// and reseeded reports true so the caller can log the loss of
// bit-exactness.
func (w *Warp) RestoreShards(salt uint64, shards []io.Reader) (reseeded bool, err error) {
	oldP := len(shards)
	if oldP < 1 {
		return false, fmt.Errorf("core: restore with %d shards", oldP)
	}
	stride := w.cfg.M + 1
	docs := w.c.NumDocs()
	rngs := make([][4]uint64, oldP)
	full := make([]int32, len(w.m.Payloads()))
	seen := make([]bool, docs)
	covered := 0
	for i, r := range shards {
		dec := sampler.NewDec(r)
		dec.Tag(warpShardTag)
		idx := dec.Int()
		p := dec.Int()
		m := dec.Int()
		if dec.Err() == nil && idx != i {
			return false, fmt.Errorf("core: shard in position %d identifies as shard %d (foreign or reordered shard file)", i, idx)
		}
		if dec.Err() == nil && p != oldP {
			return false, fmt.Errorf("core: shard %d was written under %d workers, restore supplies %d shards", i, p, oldP)
		}
		if dec.Err() == nil && m != w.cfg.M {
			return false, fmt.Errorf("core: shard %d has M=%d, sampler has M=%d", i, m, w.cfg.M)
		}
		rngs[i] = dec.RNGState()
		nChunks := dec.Int()
		if dec.Err() != nil {
			return false, dec.Err()
		}
		if nChunks < 0 || nChunks > docs {
			return false, fmt.Errorf("core: shard %d has implausible %d row ranges", i, nChunks)
		}
		ranges := make([][2]int, nChunks)
		tokens := 0
		for c := range ranges {
			lo, hi := dec.Int(), dec.Int()
			if dec.Err() != nil {
				return false, dec.Err()
			}
			if lo < 0 || lo >= hi || hi > docs {
				return false, fmt.Errorf("core: shard %d row range [%d,%d) outside corpus of %d docs", i, lo, hi, docs)
			}
			for row := lo; row < hi; row++ {
				if seen[row] {
					return false, fmt.Errorf("core: document %d appears in more than one shard", row)
				}
				seen[row] = true
				tokens += w.m.RowOf(row).Len()
			}
			ranges[c] = [2]int{lo, hi}
			covered += hi - lo
		}
		payload := dec.I32sLen("shard token payloads", tokens*stride)
		dec.CheckTopics("shard token payloads", payload, w.cfg.K)
		if err := dec.Err(); err != nil {
			return false, err
		}
		// Scatter the row-ordered payloads to their CSC positions.
		off := 0
		for _, rg := range ranges {
			for row := rg[0]; row < rg[1]; row++ {
				v := w.m.RowOf(row)
				for t := 0; t < v.Len(); t++ {
					pos := v.EntryIndex(t) * stride
					copy(full[pos:pos+stride], payload[off:off+stride])
					off += stride
				}
			}
		}
	}
	if covered != docs {
		return false, fmt.Errorf("core: shards cover %d documents, corpus has %d", covered, docs)
	}

	// Commit: payloads, then the global counts recomputed from the
	// restored assignments (slot 0 of every entry) — the same invariant
	// RestoreFrom checks against an explicit ck section.
	copy(w.m.Payloads(), full)
	ck := make([]int32, w.cfg.K)
	for i := 0; i < len(full); i += stride {
		ck[full[i]]++
	}
	copy(w.ck, ck)
	w.pass.Freeze(w.ck)
	if oldP == len(w.workers) {
		for i, wk := range w.workers {
			wk.R.SetState(rngs[i])
		}
		return false, nil
	}
	for wi, wk := range w.workers {
		wk.R = rng.Derive(w.cfg.Seed, salt, uint64(len(w.workers)), uint64(wi))
	}
	return true, nil
}
