// Distributed's side of the WarpLDA shard stream (dshd, internal/core's
// shard.go): each worker writes its own slab, so the checkpoint layer
// writes P files concurrently, and restore takes any shard set of either
// WarpLDA sampler under any worker count. The live workers
// (internal/dist) put the same stream on the wire, so worker uploads
// feed RestoreShards and checkpoint files feed workers unchanged.
package cluster

import (
	"fmt"
	"io"

	"warplda/internal/core"
	"warplda/internal/rng"
)

// NumShards implements sampler.Sharded: one shard per worker.
func (d *Distributed) NumShards() int { return d.p }

// ShardTo implements sampler.Sharded: worker i's slab (cells and
// payloads as flat arrays, in shard order) plus its RNG stream. Distinct
// shards may be written concurrently: ShardTo only reads worker i's
// state.
func (d *Distributed) ShardTo(i int, w io.Writer) error {
	if i < 0 || i >= d.p {
		return fmt.Errorf("cluster: shard %d of %d", i, d.p)
	}
	return core.EncodeWorkerState(w, &core.WorkerState{
		Index:    i,
		Workers:  d.p,
		M:        d.cfg.M,
		RNGState: d.workers[i].R.State(),
		Tokens:   d.shards[i],
	})
}

// RestoreShards implements sampler.Sharded for the streams of either
// WarpLDA sampler (from) under any worker count. core.DecodeShards
// validates the whole set before any state changes; every token is then
// put at its offset in the word-phase layout of the current topology,
// each as its document's owner would send it, in corpus order as
// NewDistributed puts them (a cell's tokens in shard order). That
// reproduces the saved shards byte for byte when this sampler wrote them
// at this worker count (the greedy partition is deterministic in corpus
// and count), and only then are the saved RNG streams adopted. Otherwise
// worker w reseeds from rng.Derive(cfg.Seed, salt, workers, w) and
// reseeded reports true so the caller can log the loss of
// bit-exactness.
func (d *Distributed) RestoreShards(salt uint64, from string, shards []io.Reader) (reseeded bool, err error) {
	states, pos, err := core.DecodeShards(d.cfg, d.c, d.c.Doc, shards)
	if err != nil {
		return false, err
	}
	adopt := from == d.Name() && len(states) == d.p

	// Token j of the set is word pos[j] of its document: order lists the
	// set in corpus order.
	var all Slab
	for _, st := range states {
		all.Append(st.Tokens)
	}
	docOff := make([]int32, len(d.c.Docs)+1)
	for di, doc := range d.c.Docs {
		docOff[di+1] = docOff[di] + int32(len(doc))
	}
	order := make([]int32, len(pos))
	for j, t := range pos {
		order[docOff[all.D[j]]+t] = int32(j)
	}
	if err := d.layOut(&all, order); err != nil {
		return false, err
	}
	d.summed = false
	for i, wk := range d.workers {
		if adopt {
			wk.R.SetState(states[i].RNGState)
		} else {
			wk.R = rng.Derive(d.cfg.Seed, salt, uint64(d.p), uint64(i))
		}
	}
	return !adopt, nil
}
