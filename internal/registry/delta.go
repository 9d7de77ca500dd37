package registry

// Serve side of incremental model refresh. The poller discovers
// WARPDLT delta files the trainer publishes next to a served base
// (<name>.dlt.<gen>, named by train.DeltaPath), validates each link of
// the chain — CRC (at read), dims, base fingerprint, contiguous
// generation — and folds it into the live engine with
// Engine.ApplyDelta: a copy-on-write rebuild of only the touched
// per-word alias tables, run entirely on the poller goroutine. The
// folded snapshot then goes through commit like every other producer's:
// in-flight requests finish on the engine they acquired, and the
// request path never pays an O(V·K) build.
//
// A delta that fails validation or the byte budget is rejected: the
// served model stays untouched, delta_rejected increments, the model's
// last_error names the reason, and the file's identity goes into the
// registry's negative cache so an unchanged bad file costs one
// rejection, not one per poll tick. The chain stops at the first bad
// link — later generations cannot apply by construction.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"warplda"
	"warplda/internal/fsio"
	"warplda/internal/train"
)

// foldNext is the delta producer: it folds generation gen+1 into e's
// resident snapshot and returns true only after committing the fold
// (the caller then tries the next generation).
func (r *Registry) foldNext(e *entry) bool {
	from := r.resident(e)
	if from == nil {
		return false
	}
	path, err := train.DeltaPath(filepath.Join(r.dir, e.name), from.gen+1)
	if err != nil {
		return false
	}
	id, ok := statID(path)
	if !ok {
		return false // no next delta: chain is drained
	}
	r.mu.Lock()
	_, refused := r.neg[id]
	r.mu.Unlock()
	if refused {
		return false // same bad file as last tick; already counted
	}

	start := time.Now()
	snap, rebuilt, err := r.fold(e.name, from, path)
	dur := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("delta %s: %w", filepath.Base(path), err)
		r.deltaRejected++
		e.lastErr = err.Error()
		r.refuse(e.name, path, id, err)
		return false
	}
	if !r.commit(e, from, snap, dur) {
		return false
	}
	r.deltasApplied++
	r.foldDur += dur
	r.wordsRebuilt += int64(rebuilt)
	return true
}

// fold reads the delta at path, checks it continues from's chain, and
// applies it, returning the folded snapshot of model name and the
// number of per-word alias tables rebuilt.
func (r *Registry) fold(name string, from *Snapshot, path string) (*Snapshot, int, error) {
	d, err := readDeltaFile(path)
	if err != nil {
		return nil, 0, err
	}
	if d.Gen != from.gen+1 {
		// File name and header disagree — a renamed or misplaced file.
		return nil, 0, fmt.Errorf("header generation %d under a .dlt.%d name", d.Gen, from.gen+1)
	}
	if fp := from.fp(); d.BaseFP != fp {
		// Foreign or stale base: the delta was diffed against a state
		// this registry is not serving (e.g. leftovers from before a
		// rebase that raced the poller).
		return nil, 0, fmt.Errorf("base fingerprint %016x does not match served state %016x", d.BaseFP, fp)
	}
	eng, rebuilt, err := from.Engine.ApplyDelta(d)
	if err != nil {
		return nil, 0, err
	}
	cw, ck := eng.Counts()
	om := from.Model
	nm := &warplda.Model{
		Cfg: om.Cfg, V: om.V, Vocab: om.Vocab,
		Cw: cw, Ck: ck, LogLik: d.LogLik,
	}
	newFP := d.NewFP // copied out, so the snapshot does not keep the delta's cells alive
	snap := &Snapshot{
		Model:  nm,
		Engine: eng,
		Vocab:  from.Vocab, // a delta never changes the vocabulary
		Bytes:  nm.SizeBytes() + eng.MemoryBytes(),
		fp:     func() uint64 { return newFP },
		id:     from.id,
		gen:    d.Gen,
	}
	return snap, rebuilt, r.overBudget(name, "folded model needs", snap.Bytes)
}

// readDeltaFile opens and fully validates one WARPDLT file (magic,
// CRC trailer, internal invariants).
func readDeltaFile(path string) (*fsio.ModelDelta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fsio.ReadDelta(f)
}
