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
// (size, mtime and inode) and hot-reloads it on change with an atomic
// snapshot swap: in-flight requests finish on the engine they acquired,
// new requests get the new one, and a torn, corrupt (caught by the
// format's CRC32 trailer) or over-budget file leaves the old snapshot
// serving while the error is surfaced in the model's stats.
//
// Four producers make snapshots: cold load (Acquire), hot reload,
// warm prefetch of a published <name>@<iter> version, and WARPDLT delta
// fold. Each is a short function over the same three pieces: fileID,
// one comparable file identity; build, the one read-and-build step
// (negative cache, warm reuse, budget by file size, read, budget by
// accounted bytes); and commit, the one install step (version, byte
// accounting, LRU, eviction). A refused file is cached by its fileID,
// so an unchanged bad file costs one read, not one per poll tick.
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
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"warplda"
	"warplda/internal/fsio"
	"warplda/internal/train"
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
	// id identifies the model file the snapshot was loaded from, and
	// gen counts the WARPDLT deltas folded into it since (0 = the file
	// itself). A fold keeps id: the base file has not changed.
	id  fileID
	gen int64
}

// fileID identifies one generation of a file. The inode leg catches
// atomic renames whose size and coarse (e.g. 1 s NFS) mtime collide
// with the loaded generation's: a temp-file+rename deploy always
// allocates a fresh inode.
type fileID struct {
	size  int64
	mtime int64 // ns
	ino   uint64
}

// statID returns the identity of the regular file at path. Stat
// follows symlinks, so a latest pointer and the versioned file it
// targets share one identity.
func statID(path string) (fileID, bool) {
	fi, err := os.Stat(path)
	if err != nil || !fi.Mode().IsRegular() {
		return fileID{}, false
	}
	return fileID{fi.Size(), fi.ModTime().UnixNano(), fileIno(fi)}, true
}

// refusal is one negatively cached failure: the file generation it is
// keyed by failed at path with err, on behalf of model owner.
type refusal struct {
	owner, path string
	err         error
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

	state int
	snap  *Snapshot // non-nil iff state == stateReady

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

	// neg is the negative cache every producer consults: a file
	// generation that failed to load, to fit the budget, or to fold is
	// answered from here, without a read, until its file changes. A
	// path keeps at most one refusal, and commit drops the owner's.
	neg map[fileID]refusal

	// Warm prefetch state: per base model name, at most one prebuilt
	// snapshot of the newest versioned sibling (<base>@<iter>.bin) the
	// poller has seen. When the "latest" pointer swap lands, build
	// answers the reload from here instead of paying the O(V·K) engine
	// build. See prefetch.
	warm         map[string]*Snapshot
	prefetched   int64 // warm builds completed
	prefetchHits int64 // loads answered from a warm snapshot

	// Incremental-refresh accounting (see foldNext): deltas folded
	// into live engines, deltas rejected by chain validation, total
	// fold wall time, and per-word alias tables rebuilt by folds.
	deltasApplied int64
	deltaRejected int64
	foldDur       time.Duration
	wordsRebuilt  int64

	stop chan struct{}
	done chan struct{}
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
		neg:     make(map[fileID]refusal),
		warm:    make(map[string]*Snapshot),
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

// resolvePath maps a model name to its file and that file's identity,
// preferring <dir>/<name>.bin over <dir>/<name>/model.bin.
func (r *Registry) resolvePath(name string) (string, fileID, error) {
	if !nameRE.MatchString(name) || name == "." || name == ".." {
		return "", fileID{}, fmt.Errorf("registry: %w: %q", ErrBadName, name)
	}
	if r.restrict != nil && !r.restrict[name] {
		return "", fileID{}, fmt.Errorf("registry: %w: %q", ErrNotFound, name)
	}
	for _, p := range []string{
		filepath.Join(r.dir, name+".bin"),
		filepath.Join(r.dir, name, "model.bin"),
	} {
		if id, ok := statID(p); ok {
			return p, id, nil
		}
	}
	return "", fileID{}, fmt.Errorf("registry: %w: %q", ErrNotFound, name)
}

// Acquire returns a snapshot of the named model, loading it first if it
// is not resident. The load runs synchronously on the calling
// goroutine; concurrent Acquires for a model mid-load fail fast with
// ErrLoading (admission control — the HTTP layer maps it to 503 +
// Retry-After) instead of queueing unbounded work behind an O(V·K)
// engine build. A failed model retries only when its file changes:
// until then build answers with the cached error.
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
		}
		// evicted or failed: this caller (re)loads.
	} else {
		e = &entry{name: name}
		r.entries[name] = e
	}
	e.state = stateLoading
	r.mu.Unlock()

	path, id, err := r.resolvePath(name)
	var snap *Snapshot
	var dur time.Duration
	if err == nil {
		snap, dur, err = r.build(e, name, path, id)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		e.state = stateFailed
		e.lastErr = err.Error()
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadName) {
			// Don't let stat failures accumulate forever for names that
			// never existed.
			delete(r.entries, name)
		}
		return nil, err
	}
	r.commit(e, nil, snap, dur)
	e.hits++
	return snap, nil
}

// build produces the snapshot of file generation id at path, named
// name, for entry e. In order: a refusal cached for id answers at once;
// a warm snapshot of the same file is reused without a read; the file
// size must fit the byte budget, and a cold load (e not yet resident)
// first evicts colder models so peak memory stays near the budget
// instead of budget + the incoming model; then the file is read and its
// engine built, and the accounted bytes must fit the budget too. A
// refused file is cached against id for e. Called without r.mu: the read
// and build are O(V·K) and must not block unrelated lookups.
func (r *Registry) build(e *entry, name, path string, id fileID) (*Snapshot, time.Duration, error) {
	r.mu.Lock()
	if ref, ok := r.neg[id]; ok {
		r.mu.Unlock()
		return nil, 0, ref.err
	}
	for _, w := range r.warm {
		if w.id == id {
			// The warm entry stays cached (a versioned name and the latest
			// pointer may both load the same file); each consumer gets its
			// own shallow copy, because commit sets Version while the model
			// and engine are immutable and shared.
			r.prefetchHits++
			snap := *w
			r.mu.Unlock()
			return &snap, 0, nil
		}
	}
	err := r.overBudget(name, "file is", id.size)
	if err == nil && e.state == stateLoading {
		r.evictFor(id.size, nil)
	}
	r.mu.Unlock()

	start := time.Now()
	var snap *Snapshot
	if err == nil {
		snap, err = r.readAndBuild(name, path)
	}
	if err == nil {
		err = r.overBudget(name, "needs", snap.Bytes)
	}
	if err != nil {
		// An OS-level open or read failure may pass by the next try; a
		// content or budget failure holds until the file changes.
		if pe := (*fs.PathError)(nil); !errors.As(err, &pe) {
			r.mu.Lock()
			r.refuse(e.name, path, id, err)
			r.mu.Unlock()
		}
		return nil, 0, err
	}
	snap.id = id
	return snap, time.Since(start), nil
}

// readAndBuild reads and validates the model file and builds its
// engine and vocabulary index.
func (r *Registry) readAndBuild(name, path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: loading %q: %w", name, err)
	}
	m, err := warplda.ReadModel(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("registry: loading %q: %w", name, err)
	}
	eng, err := warplda.NewInferEngine(m, r.opts.Infer)
	if err != nil {
		return nil, fmt.Errorf("registry: loading %q: %w", name, err)
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
	return snap, nil
}

// overBudget is the byte-budget check every producer shares: n bytes
// (what names the measure) of model name can never be resident when
// they alone exceed MaxBytes.
func (r *Registry) overBudget(name, what string, n int64) error {
	if r.opts.MaxBytes > 0 && n > r.opts.MaxBytes {
		return fmt.Errorf("registry: %w: %q %s %d bytes, budget %d",
			ErrOverCapacity, name, what, n, r.opts.MaxBytes)
	}
	return nil
}

// refuse caches err for file generation id at path, owned by model
// owner. A path holds one generation at a time, so a refusal of an
// older one is dropped. Caller holds r.mu.
func (r *Registry) refuse(owner, path string, id fileID, err error) {
	for k, ref := range r.neg {
		if ref.path == path {
			delete(r.neg, k)
		}
	}
	r.neg[id] = refusal{owner, path, err}
}

// commit makes snap e's resident snapshot: the one step every producer
// ends in. It drops snap and returns false when e no longer holds from,
// the snapshot the producer started from (nil for a cold load) — an
// eviction got there first, and the next tick starts over from what is
// resident then. Otherwise it versions snap, moves the byte accounting
// and the LRU position, evicts colder models until the budget holds
// again, and clears e's error and refusals. Caller holds r.mu.
func (r *Registry) commit(e *entry, from, snap *Snapshot, dur time.Duration) bool {
	if e.snap != from {
		return false
	}
	if from != nil {
		r.bytes -= from.Bytes
	}
	r.bytes += snap.Bytes
	e.loads++
	snap.Version = e.loads
	e.snap, e.state = snap, stateReady
	e.loadedAt, e.loadDur, e.lastErr = time.Now(), dur, ""
	if e.elem == nil {
		e.elem = r.lru.PushFront(e)
	} else {
		r.lru.MoveToFront(e.elem)
	}
	r.evictFor(0, e)
	for k, ref := range r.neg {
		if ref.owner == e.name {
			delete(r.neg, k)
		}
	}
	return true
}

// evictFor drops least-recently-used resident models (never keep)
// until incoming more bytes fit under the byte budget. Caller holds
// r.mu.
func (r *Registry) evictFor(incoming int64, keep *entry) {
	for r.opts.MaxBytes > 0 && r.bytes+incoming > r.opts.MaxBytes {
		el := r.lru.Back()
		for el != nil && el.Value.(*entry) == keep {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		v := el.Value.(*entry)
		r.bytes -= v.snap.Bytes
		r.lru.Remove(el)
		v.elem, v.snap, v.state = nil, nil, stateEvicted
		v.evictions++
		r.evicted++
	}
}

// resident returns e's serving snapshot, nil when e is not ready.
func (r *Registry) resident(e *entry) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return e.snap
}

// pollLoop is the hot-reload watcher: every ReloadInterval it runs
// pollOnce.
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

// pollOnce runs the three poller producers over every resident model.
// Builds run without the lock so serving never stalls behind them.
func (r *Registry) pollOnce() {
	r.mu.Lock()
	var ready []*entry
	for _, e := range r.entries {
		if e.state == stateReady {
			ready = append(ready, e)
		}
	}
	// A warm snapshot whose base is no longer resident waits for a swap
	// that can't be observed anymore.
	for base := range r.warm {
		if e := r.entries[base]; e == nil || e.state != stateReady {
			delete(r.warm, base)
		}
	}
	r.mu.Unlock()

	// Prefetch BEFORE reload: a publish writes the versioned
	// <name>@<iter>.bin first and swaps the latest pointer second, so the
	// swap — often observed later in this very sweep — installs a
	// prebuilt snapshot. Deltas LAST: a base just reloaded starts a fresh
	// chain, and pending <name>.dlt.* files fold into whatever is
	// resident now. Prefetch and deltas apply only to bare names — a
	// pinned <name>@<iter> is immutable by definition.
	for _, e := range ready {
		if !strings.Contains(e.name, "@") {
			r.prefetch(e)
		}
	}
	for _, e := range ready {
		r.reload(e)
	}
	for _, e := range ready {
		if !strings.Contains(e.name, "@") {
			for r.foldNext(e) {
			}
		}
	}
}

// reload is the hot-reload producer: when the file behind e's name is
// no longer the one its snapshot came from, build the new one and
// commit it. A refused file (missing, torn, corrupt, over budget) keeps
// the old snapshot serving and names the reason in last_error; a writer
// that finishes its atomic rename is picked up on the next tick.
func (r *Registry) reload(e *entry) {
	from := r.resident(e)
	if from == nil {
		return
	}
	path, id, err := r.resolvePath(e.name)
	if err == nil && id == from.id {
		return
	}
	var snap *Snapshot
	var dur time.Duration
	if err == nil {
		snap, dur, err = r.build(e, e.name, path, id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		e.lastErr = err.Error()
		return
	}
	r.commit(e, from, snap, dur)
}

// prefetch is the warm producer: it prebuilds the newest published
// version <base>@<iter>.bin of resident base e into the warm cache, on
// the poller goroutine, while the old snapshot keeps serving. Nothing is
// built when that version is already warm or is the file e serves
// (stat follows the latest symlink, so the identities coincide in
// steady state).
func (r *Registry) prefetch(e *entry) {
	from := r.resident(e)
	if from == nil {
		return
	}
	vers, _ := train.ListPublishedVersions(r.dir, e.name)
	if len(vers) == 0 {
		return
	}
	newest := vers[len(vers)-1].File
	id, ok := statID(filepath.Join(r.dir, newest))
	if !ok {
		return
	}
	r.mu.Lock()
	w := r.warm[e.name]
	if id == from.id {
		delete(r.warm, e.name) // nothing pending; drop a stale leftover
	}
	r.mu.Unlock()
	if id == from.id || (w != nil && w.id == id) {
		return
	}
	snap, _, err := r.build(e, strings.TrimSuffix(newest, ".bin"), filepath.Join(r.dir, newest), id)
	if err != nil {
		return // cached by build; a rewritten file gets a fresh try
	}
	r.mu.Lock()
	r.warm[e.name] = snap
	r.prefetched++
	r.mu.Unlock()
}
