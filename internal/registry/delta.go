package registry

// Serve side of incremental model refresh. The poller discovers
// WARPDLT delta files the trainer publishes next to a served base
// (<name>.dlt.<gen>, internal/train's naming), validates each link of
// the chain — CRC (at read), dims, base fingerprint, contiguous
// generation — and folds it into the live engine with
// Engine.ApplyDelta: a copy-on-write rebuild of only the touched
// per-word alias tables, run entirely on the poller goroutine. The
// swap then installs the new snapshot atomically under the registry
// lock, exactly like a hot reload: in-flight requests finish on the
// engine they acquired, and the request path never pays an O(V·K)
// build.
//
// A delta that fails validation is rejected: the served model stays
// untouched, delta_rejected increments, the model's last_error names
// the reason, and the file's identity is negatively cached so an
// unchanged bad file costs one rejection, not one per poll tick. The
// chain stops at the first bad link — later generations cannot apply
// by construction.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"warplda"
	"warplda/internal/fsio"
)

// deltaPath is the poller-side twin of internal/train's DeltaPath
// naming: generation gen of model name lives at <dir>/<name>.dlt.<gen>.
// (Kept in sync by TestDeltaNamingMatchesTrain.)
func (r *Registry) deltaPath(name string, gen int64) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s.dlt.%d", name, gen))
}

// deltaScan folds every pending, valid delta of one resident base
// model, one generation at a time. Called from the poller goroutine
// without the lock held; each fold re-checks entry state under the
// lock before swapping, so a concurrent eviction or reload simply
// discards the fold.
func (r *Registry) deltaScan(name string) {
	for r.foldNext(name) {
	}
}

// foldNext attempts to fold generation gen+1 into the resident
// snapshot of name. It returns true only after a successful fold (the
// caller then tries the next generation).
func (r *Registry) foldNext(name string) bool {
	r.mu.Lock()
	e := r.entries[name]
	if e == nil || e.state != stateReady {
		r.mu.Unlock()
		return false
	}
	snap := e.snap
	gen := e.gen
	rejGen, rejSize, rejMtime, rejIno := e.rejGen, e.rejSize, e.rejMtime, e.rejIno
	r.mu.Unlock()

	next := gen + 1
	path := r.deltaPath(name, next)
	fi, err := os.Stat(path)
	if err != nil || !fi.Mode().IsRegular() {
		return false // no next delta: chain is drained
	}
	if rejGen == next && fi.Size() == rejSize && fi.ModTime().Equal(rejMtime) && fileIno(fi) == rejIno {
		return false // same bad file as last tick; already counted
	}

	d, err := readDeltaFile(path)
	if err != nil {
		r.rejectDelta(name, next, fi, fmt.Sprintf("delta %s: %v", filepath.Base(path), err))
		return false
	}
	if d.Gen != next {
		// File name and header disagree — a renamed or misplaced file.
		r.rejectDelta(name, next, fi, fmt.Sprintf(
			"delta %s: header generation %d under a .dlt.%d name", filepath.Base(path), d.Gen, next))
		return false
	}
	if fp := snap.fp(); d.BaseFP != fp {
		// Foreign or stale base: the delta was diffed against a state
		// this registry is not serving (e.g. leftovers from before a
		// rebase that raced the poller).
		r.rejectDelta(name, next, fi, fmt.Sprintf(
			"delta %s: base fingerprint %016x does not match served state %016x",
			filepath.Base(path), d.BaseFP, fp))
		return false
	}

	start := time.Now()
	eng, rebuilt, err := snap.Engine.ApplyDelta(d)
	if err != nil {
		r.rejectDelta(name, next, fi, fmt.Sprintf("delta %s: %v", filepath.Base(path), err))
		return false
	}
	cw, ck := eng.Counts()
	om := snap.Model
	nm := &warplda.Model{
		Cfg: om.Cfg, V: om.V, Vocab: om.Vocab,
		Cw: cw, Ck: ck, LogLik: d.LogLik,
	}
	newFP := d.NewFP // copied out, so the snapshot does not keep the delta's cells alive
	ns := &Snapshot{
		Model:  nm,
		Engine: eng,
		Vocab:  snap.Vocab, // a delta never changes the vocabulary
		Bytes:  nm.SizeBytes() + eng.MemoryBytes(),
		fp:     func() uint64 { return newFP },
	}
	dur := time.Since(start)

	r.mu.Lock()
	defer r.mu.Unlock()
	e = r.entries[name]
	if e == nil || e.state != stateReady || e.snap != snap {
		// Evicted, or reloaded from file while we were folding: the
		// fold targeted a state no longer serving. Discard silently —
		// the next tick folds against whatever is resident then.
		return false
	}
	if r.opts.MaxBytes > 0 && ns.Bytes > r.opts.MaxBytes {
		r.deltaRejected++
		e.lastErr = fmt.Sprintf("delta %s refused: folded model needs %d bytes, budget %d",
			filepath.Base(path), ns.Bytes, r.opts.MaxBytes)
		e.rejGen, e.rejSize, e.rejMtime, e.rejIno = next, fi.Size(), fi.ModTime(), fileIno(fi)
		return false
	}
	r.bytes += ns.Bytes - snap.Bytes
	e.loads++
	ns.Version = e.loads
	e.snap = ns
	e.gen = next
	e.loadedAt = time.Now()
	e.loadDur = dur
	e.lastErr = ""
	e.rejGen, e.rejSize, e.rejMtime, e.rejIno = 0, 0, time.Time{}, 0
	r.lru.MoveToFront(e.elem)
	r.deltasApplied++
	r.foldDur += dur
	r.wordsRebuilt += int64(rebuilt)
	r.evictFor(0, e)
	return true
}

// rejectDelta records one rejected delta file: counter, last_error on
// the model, and the negative cache that keeps an unchanged bad file
// from being re-read and re-counted every tick.
func (r *Registry) rejectDelta(name string, gen int64, fi os.FileInfo, msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deltaRejected++
	if e := r.entries[name]; e != nil {
		e.lastErr = msg
		e.rejGen = gen
		e.rejSize, e.rejMtime, e.rejIno = fi.Size(), fi.ModTime(), fileIno(fi)
	}
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
