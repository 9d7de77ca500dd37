// Package registry is the multi-tenant model lifecycle layer between
// the model files warplda-train -save writes and the inference engines
// cmd/warplda-serve queries: one process, many named models, bounded
// memory, zero-downtime swaps.
//
// A Registry is rooted at a directory; every model is either a
// `<name>.bin` file or a `<name>/model.bin` subdirectory. Models load
// lazily on first Acquire, each load building the model's O(V·K)
// inference engine and vocabulary index exactly once. Loaded models are
// kept under an LRU byte budget: acquiring a cold model evicts the
// least-recently-used resident models until the newcomer fits, and a
// model that cannot fit even alone is refused (ErrOverCapacity → 503 at
// the HTTP layer). A background poller watches each loaded model's file
// (mtime+size) and hot-reloads it on change with an atomic snapshot
// swap: in-flight requests finish on the engine they acquired, new
// requests get the new one, and a torn or corrupt file (caught by the
// format's CRC32 trailer) leaves the old snapshot serving while the
// error is surfaced in the model's stats.
//
// All methods are safe for concurrent use. Snapshots are immutable;
// holders never need to release them (eviction drops the registry's
// reference, the garbage collector reclaims the memory once the last
// in-flight request completes).
package registry

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"warplda"
	"warplda/internal/fsio"
)

// Sentinel errors, distinguishable with errors.Is. ErrLoading and
// ErrOverCapacity are retryable admission-control conditions (HTTP
// 503); ErrNotFound and ErrBadName are caller errors (404).
var (
	ErrNotFound     = errors.New("model not found")
	ErrBadName      = errors.New("invalid model name")
	ErrLoading      = errors.New("model is loading")
	ErrOverCapacity = errors.New("model exceeds the registry byte budget")
	ErrClosed       = errors.New("registry is closed")
)

// nameRE is the set of acceptable model names: path traversal and
// separators are structurally impossible, not merely rejected. '@' is
// admitted (beyond the first character) so the registry serves the
// versioned snapshots train-side publishing writes — <name>@<iter>
// pins one published iteration, while the bare <name> follows the
// atomically-swapped "latest" pointer.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9.@_-]{0,127}$`)

// Options configure a Registry. The zero value means: unlimited byte
// budget, no hot-reload polling, default engine options.
type Options struct {
	// MaxBytes is the LRU byte budget across all resident models
	// (model counts + engine tables, per Snapshot.Bytes). 0 means
	// unlimited.
	MaxBytes int64
	// ReloadInterval is the poll period for file-change detection on
	// loaded models. 0 disables hot reload.
	ReloadInterval time.Duration
	// Infer configures every model's inference engine.
	Infer warplda.InferOptions
	// Restrict, when non-empty, limits the registry to exactly these
	// model names: anything else in the directory is neither served nor
	// listed. Single-file serving mode (warplda-serve -model) uses it
	// so pointing at one file does not expose its sibling snapshots.
	Restrict []string
}

// Snapshot is one immutable loaded version of a model: the model, its
// prebuilt engine, its vocabulary index, and its byte accounting. A
// request handler acquires a snapshot once and uses it for the whole
// request, so a concurrent hot swap can never change the model
// mid-request.
type Snapshot struct {
	Model  *warplda.Model
	Engine *warplda.InferEngine
	// Vocab maps vocabulary words to token ids; nil when the model has
	// no vocabulary.
	Vocab map[string]int32
	// Bytes is the snapshot's accounted resident size.
	Bytes int64
	// Version counts loads of this model name: 1 on first load,
	// incremented by every hot reload, eviction-reload, and delta fold.
	Version int

	// fp returns the chain fingerprint of the snapshot's count state
	// (fsio.ModelFingerprint for a file load, the delta's NewFP for a
	// folded snapshot) — the value the next delta's BaseFP must match.
	// A file load hashes its V·K cells only when the poller first meets
	// a delta for it (sync.OnceValue), not while a start or a reload is
	// waiting for the snapshot.
	fp func() uint64
}

// entry states. An entry exists for every name ever acquired (plus
// failures), so stats survive eviction.
const (
	stateLoading = iota
	stateReady
	stateEvicted
	stateFailed
)

var stateNames = [...]string{"loading", "ready", "evicted", "failed"}

type entry struct {
	name string
	path string

	state int
	snap  *Snapshot // non-nil iff state == stateReady

	// File identity of the loaded snapshot, for change detection. The
	// inode leg catches atomic renames whose size and coarse mtime
	// collide with the loaded generation's.
	fileSize  int64
	fileMtime time.Time
	fileIno   uint64

	// Negative cache for stateFailed: the error and the identity of
	// the file that produced it. While the file is unchanged, Acquire
	// returns failErr without re-paying the read + O(V·K) engine build
	// (a client retry loop against a corrupt or over-budget model must
	// not become a load-build-discard loop).
	failErr   error
	failSize  int64
	failMtime time.Time
	failIno   uint64

	// Delta chain position of the resident snapshot: gen counts the
	// WARPDLT deltas folded since the snapshot's file load (0 = the
	// base itself); snap.fp holds the matching chain fingerprint. Reset
	// by every file (re)load.
	gen int64

	// Negative cache for a rejected delta file: while <name>.dlt.<gen+1>
	// keeps the identity that failed validation, the poller skips it
	// without re-reading or re-counting the rejection. Cleared by every
	// install and every successful fold.
	rejGen   int64
	rejSize  int64
	rejMtime time.Time
	rejIno   uint64

	loadedAt time.Time
	loadDur  time.Duration

	hits      int64
	loads     int // successful loads, == snap.Version when ready
	evictions int
	lastErr   string

	elem *list.Element // position in the LRU list when ready
}

// Registry serves named models out of a directory. See the package
// documentation for the lifecycle model.
type Registry struct {
	dir      string
	opts     Options
	restrict map[string]bool // nil = serve everything in dir

	mu      sync.Mutex
	entries map[string]*entry
	lru     list.List // of *entry; front = most recently used
	bytes   int64     // sum of resident snapshot bytes
	evicted int64     // total evictions, for stats
	closed  bool

	// Warm prefetch state: per base model name, at most one prebuilt
	// snapshot of the newest versioned sibling (<base>@<iter>.bin) the
	// poller has seen, keyed and matched by file identity. When the
	// "latest" pointer swap lands, the reload is answered from here
	// instead of paying the O(V·K) engine build. See prefetchScan.
	warm         map[string]*warmEntry
	prefetched   int64 // warm builds completed
	prefetchHits int64 // loads answered from a warm snapshot

	// Incremental-refresh accounting (see deltaScan): deltas folded
	// into live engines, deltas rejected by chain validation, total
	// fold wall time, and per-word alias tables rebuilt by folds.
	deltasApplied int64
	deltaRejected int64
	foldDur       time.Duration
	wordsRebuilt  int64

	stop chan struct{}
	done chan struct{}
}

// warmEntry is one prebuilt, not-yet-serving snapshot plus the
// identity of the file it was built from.
type warmEntry struct {
	path  string
	size  int64
	mtime time.Time
	ino   uint64
	iter  int
	snap  *Snapshot
}

// Open validates dir and returns a registry over it. No model is
// loaded yet; loading happens on first Acquire. When
// opts.ReloadInterval > 0 a background poller hot-reloads loaded models
// whose files change; Close stops it.
func Open(dir string, opts Options) (*Registry, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("registry: %s is not a directory", dir)
	}
	r := &Registry{
		dir:     dir,
		opts:    opts,
		entries: make(map[string]*entry),
		warm:    make(map[string]*warmEntry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if len(opts.Restrict) > 0 {
		r.restrict = make(map[string]bool, len(opts.Restrict))
		for _, name := range opts.Restrict {
			r.restrict[name] = true
		}
	}
	if opts.ReloadInterval > 0 {
		go r.pollLoop()
	} else {
		close(r.done)
	}
	return r, nil
}

// Close stops the reload poller and refuses further Acquires. It is
// idempotent. Snapshots already handed out remain valid.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	poller := r.opts.ReloadInterval > 0
	r.mu.Unlock()
	if poller {
		close(r.stop)
	}
	<-r.done
}

// resolvePath maps a model name to its file, preferring <dir>/<name>.bin
// over <dir>/<name>/model.bin.
func (r *Registry) resolvePath(name string) (string, os.FileInfo, error) {
	if !nameRE.MatchString(name) || name == "." || name == ".." {
		return "", nil, fmt.Errorf("registry: %w: %q", ErrBadName, name)
	}
	if r.restrict != nil && !r.restrict[name] {
		return "", nil, fmt.Errorf("registry: %w: %q", ErrNotFound, name)
	}
	for _, p := range []string{
		filepath.Join(r.dir, name+".bin"),
		filepath.Join(r.dir, name, "model.bin"),
	} {
		if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() {
			return p, fi, nil
		}
	}
	return "", nil, fmt.Errorf("registry: %w: %q", ErrNotFound, name)
}

// Acquire returns a snapshot of the named model, loading it first if it
// is not resident. The load runs synchronously on the calling
// goroutine; concurrent Acquires for a model mid-load fail fast with
// ErrLoading (admission control — the HTTP layer maps it to 503 +
// Retry-After) instead of queueing unbounded work behind an O(V·K)
// engine build.
func (r *Registry) Acquire(name string) (*Snapshot, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	e := r.entries[name]
	if e != nil {
		switch e.state {
		case stateReady:
			e.hits++
			r.lru.MoveToFront(e.elem)
			snap := e.snap
			r.mu.Unlock()
			return snap, nil
		case stateLoading:
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: %w: %q", ErrLoading, name)
		case stateFailed:
			// Negative cache: the same file produces the same failure;
			// don't re-pay the read + engine build for a client retry
			// loop against a corrupt or over-budget model.
			if e.failErr != nil && e.path != "" {
				if fi, serr := os.Stat(e.path); serr == nil && fi.Size() == e.failSize &&
					fi.ModTime().Equal(e.failMtime) && fileIno(fi) == e.failIno {
					err := e.failErr
					r.mu.Unlock()
					return nil, err
				}
			}
			// File changed (or identity unknown): retry the load.
		}
		// evicted, or failed with a changed file: this caller reloads.
	} else {
		e = &entry{name: name}
		r.entries[name] = e
	}
	e.state = stateLoading
	r.mu.Unlock()

	snap, path, fi, dur, err := r.admitAndLoad(name)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil && r.opts.MaxBytes > 0 && snap.Bytes > r.opts.MaxBytes {
		// The file fit but counts + engine tables do not (rare: the
		// admission check below catches most cases by file size).
		err = fmt.Errorf("registry: %w: %q needs %d bytes, budget %d",
			ErrOverCapacity, name, snap.Bytes, r.opts.MaxBytes)
	}
	if err != nil {
		e.state = stateFailed
		e.lastErr = err.Error()
		e.failErr = err
		e.path, e.failSize, e.failMtime, e.failIno = "", 0, time.Time{}, 0
		if fi != nil {
			// Remember which file failed so the negative cache holds
			// until it changes.
			e.path = path
			e.failSize = fi.Size()
			e.failMtime = fi.ModTime()
			e.failIno = fileIno(fi)
		}
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadName) {
			// Don't let stat failures accumulate forever for names that
			// never existed.
			delete(r.entries, name)
		}
		return nil, err
	}
	e.loads++
	snap.Version = e.loads
	r.evictFor(snap.Bytes, e)
	r.install(e, snap, path, fi, dur)
	e.hits++
	return snap, nil
}

// admitAndLoad resolves the model file, applies byte-budget admission
// control BEFORE the expensive read (the file size is a lower bound on
// the resident size), pre-evicts colder models so peak memory during
// the load stays near the budget instead of budget + the whole
// incoming model, then reads the file and builds the engine. On
// failure it still returns the file identity (when resolvable) so the
// caller can cache the failure against it.
func (r *Registry) admitAndLoad(name string) (*Snapshot, string, os.FileInfo, time.Duration, error) {
	path, fi, err := r.resolvePath(name)
	if err != nil {
		return nil, "", nil, 0, err
	}
	if r.opts.MaxBytes > 0 {
		if fi.Size() > r.opts.MaxBytes {
			return nil, path, fi, 0, fmt.Errorf("registry: %w: %q file is %d bytes, budget %d",
				ErrOverCapacity, name, fi.Size(), r.opts.MaxBytes)
		}
		r.mu.Lock()
		r.evictFor(fi.Size(), nil)
		r.mu.Unlock()
	}
	// A prefetched snapshot of this exact file (a versioned publish the
	// poller warmed) answers the load without the read + engine build.
	if snap := r.takeWarm(fi); snap != nil {
		return snap, path, fi, 0, nil
	}
	snap, dur, err := r.readAndBuild(name, path)
	if err != nil {
		return nil, path, fi, 0, err
	}
	return snap, path, fi, dur, nil
}

// readAndBuild reads and validates the model file and builds its
// engine and vocabulary index. Called without the registry lock held:
// engine construction is O(V·K) and must not block unrelated lookups.
func (r *Registry) readAndBuild(name, path string) (*Snapshot, time.Duration, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: loading %q: %w", name, err)
	}
	m, err := warplda.ReadModel(f)
	f.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("registry: loading %q: %w", name, err)
	}
	eng, err := warplda.NewInferEngine(m, r.opts.Infer)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: loading %q: %w", name, err)
	}
	snap := &Snapshot{
		Model:  m,
		Engine: eng,
		Bytes:  m.SizeBytes() + eng.MemoryBytes(),
		// The chain fingerprint anchors delta folding: the first delta's
		// BaseFP must equal it.
		fp: sync.OnceValue(func() uint64 { return fsio.ModelFingerprint(m.V, m.Cfg.K, m.Cw, m.Ck) }),
	}
	if m.Vocab != nil {
		snap.Vocab = make(map[string]int32, len(m.Vocab))
		for i, w := range m.Vocab {
			snap.Vocab[w] = int32(i)
		}
	}
	return snap, time.Since(start), nil
}

// install makes snap the entry's resident snapshot (first load or hot
// swap), updating byte accounting and LRU position. Caller holds r.mu.
func (r *Registry) install(e *entry, snap *Snapshot, path string, fi os.FileInfo, dur time.Duration) {
	if e.state == stateReady {
		r.bytes -= e.snap.Bytes
	}
	e.snap = snap
	e.path = path
	e.fileSize = fi.Size()
	e.fileMtime = fi.ModTime()
	e.fileIno = fileIno(fi)
	e.loadedAt = time.Now()
	e.loadDur = dur
	e.lastErr = ""
	e.failErr, e.failSize, e.failMtime, e.failIno = nil, 0, time.Time{}, 0
	// A file (re)load is a chain base: generation 0, fingerprint of the
	// loaded counts, no remembered delta rejection.
	e.gen = 0
	e.rejGen, e.rejSize, e.rejMtime, e.rejIno = 0, 0, time.Time{}, 0
	r.bytes += snap.Bytes
	if e.elem == nil {
		e.elem = r.lru.PushFront(e)
	} else {
		r.lru.MoveToFront(e.elem)
	}
	e.state = stateReady
}

// evictFor evicts least-recently-used resident models (never keep,
// which is the entry being installed) until incoming fits under the
// byte budget. Caller holds r.mu.
func (r *Registry) evictFor(incoming int64, keep *entry) {
	if r.opts.MaxBytes <= 0 {
		return
	}
	for r.bytes+incoming > r.opts.MaxBytes {
		el := r.lru.Back()
		for el != nil && el.Value.(*entry) == keep {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		r.evict(el.Value.(*entry))
	}
}

// evict drops e's snapshot. Caller holds r.mu.
func (r *Registry) evict(e *entry) {
	r.bytes -= e.snap.Bytes
	r.lru.Remove(e.elem)
	e.elem = nil
	e.snap = nil
	e.state = stateEvicted
	e.evictions++
	r.evicted++
}

// pollLoop is the hot-reload watcher: every ReloadInterval it compares
// each resident model's file identity (size+mtime) against what was
// loaded and atomically swaps in a fresh snapshot on change. A failed
// reload (missing file, torn write caught by the CRC trailer, corrupt
// header) keeps the old snapshot serving and records the error; the
// next tick retries, so a writer that finishes its atomic rename gets
// picked up.
func (r *Registry) pollLoop() {
	defer close(r.done)
	t := time.NewTicker(r.opts.ReloadInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.pollOnce()
		}
	}
}

// pollOnce runs one reload sweep. Exposed to tests indirectly via the
// ticker; loads run without the lock so serving never stalls behind an
// engine build.
func (r *Registry) pollOnce() {
	type candidate struct {
		name  string
		path  string
		size  int64
		mtime time.Time
		ino   uint64
	}
	r.mu.Lock()
	var cands []candidate
	for _, e := range r.entries {
		if e.state == stateReady {
			cands = append(cands, candidate{e.name, e.path, e.fileSize, e.fileMtime, e.fileIno})
		}
	}
	r.mu.Unlock()

	// Drop warm snapshots whose base model is no longer resident (the
	// swap they were built for can't be observed anymore).
	ready := make(map[string]bool, len(cands))
	for _, c := range cands {
		ready[c.name] = true
	}
	r.mu.Lock()
	for base := range r.warm {
		if !ready[base] {
			delete(r.warm, base)
		}
	}
	r.mu.Unlock()

	// Warm prefetch BEFORE the reload sweep: a publish writes the
	// versioned <name>@<iter>.bin first and swaps the latest pointer
	// second, so building the newcomer's engine here means the swap —
	// often observed later in this very sweep — installs a prebuilt
	// snapshot instead of paying the cold O(V·K) build.
	for _, c := range cands {
		if !strings.Contains(c.name, "@") {
			r.prefetchScan(c.name, c.size, c.mtime, c.ino)
		}
	}

	for _, c := range cands {
		fi, err := os.Stat(c.path)
		if err != nil {
			r.recordReloadError(c.name, fmt.Sprintf("stat: %v", err))
			continue
		}
		// Size, mtime, AND inode: an atomic rename always changes the
		// inode, so a retrained same-dims model is detected even when
		// its size matches and a coarse (e.g. 1s NFS) mtime collides.
		if fi.Size() == c.size && fi.ModTime().Equal(c.mtime) && fileIno(fi) == c.ino {
			continue
		}
		path, pfi, err := r.resolvePath(c.name)
		if err != nil {
			r.recordReloadError(c.name, err.Error())
			continue
		}
		snap, dur, err := r.reloadSnapshot(c.name, path, pfi)
		if err != nil {
			r.recordReloadError(c.name, err.Error())
			continue
		}
		if r.opts.MaxBytes > 0 && snap.Bytes > r.opts.MaxBytes {
			// Refusing the swap keeps the budget invariant; the old
			// snapshot keeps serving.
			r.recordReloadError(c.name, fmt.Sprintf(
				"reload refused: model grew to %d bytes, budget is %d", snap.Bytes, r.opts.MaxBytes))
			continue
		}
		r.mu.Lock()
		e := r.entries[c.name]
		if e == nil || e.state != stateReady {
			// Evicted or dropped while we were loading: discard.
			r.mu.Unlock()
			continue
		}
		e.loads++
		snap.Version = e.loads
		r.install(e, snap, path, pfi, dur)
		// The swap may have grown the model past the budget; evict
		// colder models to get back under it.
		r.evictFor(0, e)
		r.mu.Unlock()
	}

	// Incremental refresh LAST: a base that was just (re)loaded above
	// starts a fresh chain, and any pending <name>.dlt.* files fold into
	// whatever is resident now. Deltas apply only to bare names — a
	// pinned <name>@<iter> is immutable by definition.
	for _, c := range cands {
		if !strings.Contains(c.name, "@") {
			r.deltaScan(c.name)
		}
	}
}

// reloadSnapshot produces the fresh snapshot for a changed model file:
// from the warm prefetch cache when the new file is one the poller
// already built (the hot-swap fast path — a publish never pays the
// engine build on the serving side of the swap), else by reading and
// building cold.
func (r *Registry) reloadSnapshot(name, path string, pfi os.FileInfo) (*Snapshot, time.Duration, error) {
	if snap := r.takeWarm(pfi); snap != nil {
		return snap, 0, nil
	}
	return r.readAndBuild(name, path)
}

// versionedIterRE extracts the <iter> of a <base>@<iter>.bin sibling.
var versionedIterRE = regexp.MustCompile(`^@(\d+)\.bin$`)

// prefetchScan looks for versioned siblings <base>@<iter>.bin of a
// resident base model and prebuilds the newest one's snapshot into the
// warm cache. curSize/curMtime/curIno identify the file the base model
// currently serves from: when the newest version IS that file (stat
// follows the latest symlink, so identities coincide in steady state),
// there is nothing to warm. The build runs on the poller goroutine,
// off every request path, while the old snapshot keeps serving.
func (r *Registry) prefetchScan(base string, curSize int64, curMtime time.Time, curIno uint64) {
	des, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	bestIter := -1
	var bestPath string
	for _, de := range des {
		if de.IsDir() || !strings.HasPrefix(de.Name(), base+"@") {
			continue
		}
		m := versionedIterRE.FindStringSubmatch(de.Name()[len(base):])
		if m == nil {
			continue
		}
		iter, err := strconv.Atoi(m[1])
		if err != nil || iter <= bestIter {
			continue
		}
		bestIter, bestPath = iter, filepath.Join(r.dir, de.Name())
	}
	if bestIter < 0 {
		return
	}
	fi, err := os.Stat(bestPath)
	if err != nil || !fi.Mode().IsRegular() {
		return
	}
	ino := fileIno(fi)
	if fi.Size() == curSize && fi.ModTime().Equal(curMtime) && ino == curIno {
		// The newest version is what the base already serves: nothing
		// pending. Drop any stale warm leftover for this base.
		r.mu.Lock()
		delete(r.warm, base)
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	if w := r.warm[base]; w != nil && w.size == fi.Size() && w.mtime.Equal(fi.ModTime()) && w.ino == ino {
		r.mu.Unlock() // already warmed
		return
	}
	r.mu.Unlock()
	if r.opts.MaxBytes > 0 && fi.Size() > r.opts.MaxBytes {
		return // could never serve; don't build it
	}
	snap, _, err := r.readAndBuild(fmt.Sprintf("%s@%d", base, bestIter), bestPath)
	if err != nil {
		return // torn or mid-write; the next tick retries
	}
	if r.opts.MaxBytes > 0 && snap.Bytes > r.opts.MaxBytes {
		return
	}
	r.mu.Lock()
	r.warm[base] = &warmEntry{
		path: bestPath, size: fi.Size(), mtime: fi.ModTime(), ino: ino,
		iter: bestIter, snap: snap,
	}
	r.prefetched++
	r.mu.Unlock()
}

// takeWarm returns a warm snapshot built from exactly the file fi
// identifies, or nil. The identity match works across the latest
// symlink: stat of the swapped pointer resolves to the versioned
// target's inode, so the pointer swap consumes the snapshot prefetched
// from the target. The entry stays cached (the versioned name and the
// latest pointer may both load the same file); each consumer gets its
// own shallow copy, because install mutates Version while the
// underlying model and engine are immutable and shared. Stale entries
// are pruned by the poller (prefetchScan and the eviction sweep).
func (r *Registry) takeWarm(fi os.FileInfo) *Snapshot {
	ino := fileIno(fi)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.warm {
		if w.size == fi.Size() && w.mtime.Equal(fi.ModTime()) && w.ino == ino {
			r.prefetchHits++
			snap := *w.snap
			return &snap
		}
	}
	return nil
}

func (r *Registry) recordReloadError(name, msg string) {
	r.mu.Lock()
	if e := r.entries[name]; e != nil {
		e.lastErr = msg
	}
	r.mu.Unlock()
}
