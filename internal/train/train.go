// Package train orchestrates long training runs. It owns the
// iterate/eval loop (sampler.Loop is the shared core; sampler.Train is
// the fire-and-forget thin wrapper), and adds what a multi-hour
// production job needs on top of it:
//
//   - periodic checkpoints — CRC-trailed, atomically renamed snapshots
//     of the sampler's complete state, one manifest-bound container for
//     every sampler, so a crashed or killed run resumes bit-identically
//     to one that was never interrupted;
//   - cooperative interruption — a Stop channel (wired to SIGINT /
//     SIGTERM by cmd/warplda-train) that finishes the current
//     iteration, checkpoints, and returns instead of dying mid-pass;
//   - an optional wall-clock budget on sampling time;
//   - progress callbacks for operational observability.
package train

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"warplda/internal/corpus"
	"warplda/internal/fsio"
	"warplda/internal/sampler"
)

// Options configures a training run. Iters is required; everything
// else is optional.
type Options struct {
	// Iters is the target number of completed iterations (counted from
	// the start of the run, including any iterations a resumed
	// checkpoint already completed).
	Iters int
	// EvalEvery is the log-likelihood evaluation interval in iterations;
	// <= 0 means every iteration. The final iteration is always
	// evaluated.
	EvalEvery int
	// CheckpointDir, when non-empty, is the directory that receives
	// iteration-stamped checkpoint directories.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval in iterations. <= 0
	// with a CheckpointDir means checkpoints are written only at
	// interruption, budget exhaustion, and completion.
	CheckpointEvery int
	// CheckpointKeep is the keep-last-N retention bound on
	// iteration-stamped checkpoints in CheckpointDir: after every
	// successful checkpoint, older ones beyond the newest N are
	// deleted. <= 0 means 1 (only the newest survives — the disk bound
	// of the pre-retention single-file behavior, with a stamped name).
	CheckpointKeep int
	// Logf, when non-nil, receives operational notices that are not
	// errors but that an operator should see — most importantly the
	// elastic-resume notice that worker RNG streams were reseeded
	// because the worker count changed (the resumed run is then
	// statistically equivalent to, not bit-identical with, the
	// uninterrupted one).
	Logf func(format string, args ...any)
	// Budget, when > 0, bounds cumulative *sampling* time: the run stops
	// (and checkpoints) after the first iteration that crosses it.
	// Evaluation time is excluded, matching the trace's Elapsed.
	Budget time.Duration
	// Stop requests cooperative interruption: after it is closed (or
	// receives a value) the current iteration finishes, a checkpoint is
	// written, and Run returns with Interrupted set.
	Stop <-chan struct{}
	// Progress, when non-nil, is called after every iteration with the
	// loop position, the evaluation point if one was recorded, and the
	// checkpoint path if one was written.
	Progress func(Event)
	// ResumeFrom, when non-nil, is a checkpoint to continue from. It
	// must match the sampler's algorithm, the corpus, and cfg up to
	// Threads (Checkpoint.Verify); the sampler's state is replaced before
	// the first iteration.
	ResumeFrom *Checkpoint
}

// Event is one Progress callback's payload.
type Event struct {
	// Iter is the just-completed iteration; Iters the run target.
	Iter, Iters int
	// Eval is the evaluation recorded after this iteration, if any, and
	// EvalTime the wall time it took (0 when there was none).
	Eval     *sampler.Point
	EvalTime time.Duration
	// Checkpoint is the path of the checkpoint written after this
	// iteration, if any.
	Checkpoint string
}

// Result describes how a run ended.
type Result struct {
	// Run is the convergence trace (including points restored from a
	// resumed checkpoint, so an interrupted + resumed run's final trace
	// equals the uninterrupted run's).
	Run sampler.Run
	// Iter is the number of completed iterations.
	Iter int
	// Completed reports whether the Iters target was reached.
	Completed bool
	// Interrupted reports a cooperative stop via Options.Stop;
	// OverBudget a stop via Options.Budget.
	Interrupted bool
	OverBudget  bool
	// CheckpointPath is the last checkpoint written, if any.
	CheckpointPath string
}

// Run trains s on c until opts.Iters iterations complete, the budget is
// exhausted, or a stop is requested — checkpointing along the way when
// configured. c may be any corpus provider (in-memory, or the mapped
// out-of-core cache) and must be the corpus s was built over. A run
// that checkpoints or resumes needs s to have checkpointable state
// (sampler.Sharded, or the StateTo/RestoreFrom pair of a one-shard
// checkpoint); one without it fails here, before its first iteration.
// The returned Result is valid (trace so far, stop reason) for every
// non-error return.
func Run(s sampler.Sampler, c corpus.Provider, cfg sampler.Config, opts Options) (Result, error) {
	if opts.Iters <= 0 {
		return Result{}, fmt.Errorf("train: Iters = %d, want > 0", opts.Iters)
	}
	loop := sampler.NewLoop(s, c, cfg, opts.EvalEvery)
	loop.Iters = opts.Iters
	fingerprint := CorpusFingerprint(c)

	var sh sampler.Sharded
	if opts.CheckpointDir != "" || opts.ResumeFrom != nil {
		var err error
		if sh, err = asSharded(s); err != nil {
			return Result{}, err
		}
	}
	if ck := opts.ResumeFrom; ck != nil {
		if ck.Iter > opts.Iters {
			return Result{}, fmt.Errorf("train: checkpoint is at iteration %d, past the %d-iteration target", ck.Iter, opts.Iters)
		}
		if err := ck.Verify(s.Name(), fingerprint, cfg); err != nil {
			return Result{}, err
		}
		reseeded, err := ck.RestoreInto(sh)
		if err != nil {
			return Result{}, fmt.Errorf("train: restoring sharded state: %w", err)
		}
		if reseeded && opts.Logf != nil {
			opts.Logf("elastic resume: repartitioned %d-shard %s checkpoint across %d %s workers; worker RNG streams reseeded (run is statistically equivalent, not bit-identical, to an uninterrupted one)",
				len(ck.ShardFiles), ck.Sampler, sh.NumShards(), s.Name())
		}
		loop.SetProgress(ck.Iter, ck.Elapsed, ck.Trace)
	}

	stopped := func() bool {
		select {
		case <-opts.Stop:
			return true
		default:
			return false
		}
	}

	res := Result{}
	save := func() (string, error) {
		if opts.CheckpointDir == "" {
			return "", nil
		}
		path, err := writeCheckpoint(loop, sh, fingerprint, opts.CheckpointDir)
		if err != nil {
			res.Run, res.Iter = loop.Trace, loop.Iter
			return "", fmt.Errorf("train: writing checkpoint at iteration %d: %w", loop.Iter, err)
		}
		if err := PruneCheckpoints(opts.CheckpointDir, opts.CheckpointKeep, loop.Iter); err != nil && opts.Logf != nil {
			// The checkpoint itself committed; a failed rotation costs
			// disk, not progress.
			opts.Logf("checkpoint retention: %v", err)
		}
		res.CheckpointPath = path
		return path, nil
	}
	for loop.Iter < opts.Iters {
		// A stop that lands outside Step (during eval, checkpoint I/O, or
		// a progress callback) is noticed here: checkpoint what we have
		// and leave without starting another iteration.
		if stopped() {
			res.Interrupted = true
			if loop.Iter > 0 {
				if _, err := save(); err != nil {
					return res, err
				}
			}
			break
		}
		loop.Step()
		final := loop.Iter == opts.Iters

		var ev Event
		ev.Iter, ev.Iters = loop.Iter, opts.Iters
		evalStart := time.Now()
		if p, ok := loop.Eval(); ok {
			ev.Eval, ev.EvalTime = &p, time.Since(evalStart)
		}

		if stopped() {
			res.Interrupted = true
		}
		if opts.Budget > 0 && loop.Elapsed >= opts.Budget {
			res.OverBudget = true
		}
		periodic := opts.CheckpointEvery > 0 && loop.Iter%opts.CheckpointEvery == 0
		if periodic || final || res.Interrupted || res.OverBudget {
			path, err := save()
			if err != nil {
				return res, err
			}
			ev.Checkpoint = path
		}
		if opts.Progress != nil {
			opts.Progress(ev)
		}
		if res.Interrupted || res.OverBudget {
			break
		}
	}
	res.Run = loop.Trace
	res.Iter = loop.Iter
	res.Completed = loop.Iter >= opts.Iters
	if res.Completed {
		res.Interrupted, res.OverBudget = false, false
	}
	return res, nil
}

// writeCheckpoint snapshots the loop's sampler, as sh, into
// CheckpointDir under an iteration-stamped directory: one shard file per
// worker of a sharded sampler, written concurrently, or one shard
// holding StateTo's stream, then the manifest (manifest.go) — either way
// streamed, O(1) extra memory regardless of state size.
func writeCheckpoint(loop *sampler.Loop, sh sampler.Sharded, fingerprint uint32, dir string) (string, error) {
	ck := &Checkpoint{
		Sampler:     loop.Sampler.Name(),
		Cfg:         loop.Cfg,
		Iter:        loop.Iter,
		Elapsed:     loop.Elapsed,
		Trace:       loop.Trace,
		Fingerprint: fingerprint,
	}
	return ck.WriteSharded(dir, sh)
}

// publishNameRE is the set of *base* model names -publish accepts. It
// is the serving registry's name rule (internal/registry's nameRE;
// kept in sync by TestPublishNamesMatchRegistry) minus '@': the
// registry additionally serves '@'-versioned names, but '@' is exactly
// the separator versioned publishing appends (<name>@<iter>), so a
// base name may not contain it. Publishing a name the registry would
// 404 on forever must fail here, at train time, not in production.
var publishNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// PublishPath resolves the -publish flag's "<dir>/<name>" spec to the
// model file path the serving registry loads for model <name>: the
// registry maps a model name to <dir>/<name>.bin (or a <name>/model.bin
// subdirectory; the flat file is what publishing writes). The spec's
// final element must be a bare model name the registry will accept — no
// path separators, no .bin suffix of its own, and within the registry's
// name alphabet.
func PublishPath(spec string) (path, name string, err error) {
	dir, name := filepath.Split(filepath.Clean(spec))
	if dir == "" || name == "" || name == "." || name == ".." {
		return "", "", fmt.Errorf("train: -publish wants <model-dir>/<model-name>, got %q", spec)
	}
	if filepath.Ext(name) == ".bin" {
		return "", "", fmt.Errorf("train: -publish takes a model name, not a file name (drop the .bin from %q)", spec)
	}
	if !publishNameRE.MatchString(name) {
		return "", "", fmt.Errorf("train: -publish name %q is not servable (want %s)", name, publishNameRE)
	}
	return filepath.Join(dir, name+".bin"), name, nil
}

// VersionedPublishPath resolves a publish spec to the
// iteration-stamped snapshot path <dir>/<name>@<iter>.bin and the
// versioned registry name <name>@<iter>. Versioned snapshots are what
// make registry rollback possible: every publish leaves a pinned,
// independently-servable model behind, and the unversioned <name> is
// just a pointer to one of them (PublishLatest).
func VersionedPublishPath(spec string, iter int) (path, name string, err error) {
	if iter < 0 {
		return "", "", fmt.Errorf("train: publish iteration %d, want >= 0", iter)
	}
	basePath, base, err := PublishPath(spec)
	if err != nil {
		return "", "", err
	}
	name = fmt.Sprintf("%s@%d", base, iter)
	return filepath.Join(filepath.Dir(basePath), name+".bin"), name, nil
}

// PublishLatest atomically points the unversioned model <dir>/<name>.bin
// at the already-written versioned snapshot <name>@<iter>.bin — the
// "latest" pointer a serving registry loads under the bare name. The
// swap is a relative symlink renamed into place, so a watching
// registry observes either the old version or the new one, never a
// partial state, and its inode-aware change detection picks the swap
// up without a restart. On filesystems without symlink support the
// snapshot's bytes are copied into place with the same atomic-rename
// discipline instead (functionally identical; rollback then costs a
// re-publish rather than a pointer move). The path of the updated
// pointer is returned.
func PublishLatest(spec string, iter int) (string, error) {
	latest, name, err := PublishPath(spec)
	if err != nil {
		return "", err
	}
	target, _, err := VersionedPublishPath(spec, iter)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(target); err != nil {
		return "", fmt.Errorf("train: versioned snapshot missing: %w", err)
	}
	dir := filepath.Dir(latest)
	tmp := filepath.Join(dir, fmt.Sprintf(".warplda-latest-%s-%d", name, os.Getpid()))
	os.Remove(tmp)
	if err := os.Symlink(filepath.Base(target), tmp); err != nil {
		// No symlinks here (exotic filesystem): fall back to an atomic
		// byte copy of the versioned snapshot.
		if _, cerr := fsio.AtomicWriteFile(latest, ".warplda-latest-*", func(w io.Writer) (int64, error) {
			f, err := os.Open(target)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			return io.Copy(w, f)
		}); cerr != nil {
			return "", fmt.Errorf("train: installing latest pointer: %w (symlink: %v)", cerr, err)
		}
		return latest, nil
	}
	if err := os.Rename(tmp, latest); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("train: installing latest pointer: %w", err)
	}
	return latest, nil
}

// publishedVersionRE extracts the <iter> suffix of a pinned snapshot
// file name, matched against the part after the base name.
var publishedVersionRE = regexp.MustCompile(`^@(\d+)\.bin$`)

// PublishedVersion is one pinned snapshot <name>@<iter>.bin of a
// publish target.
type PublishedVersion struct {
	Iter int
	File string // <name>@<iter>.bin, relative to the publish directory
}

// ListPublishedVersions returns the pinned version snapshots of model
// name in dir, oldest (lowest iteration) first. Directories and files
// that are not exactly <name>@<digits>.bin are ignored. Serving (the
// registry's version list and warm prefetch) and pruning read this one
// list.
func ListPublishedVersions(dir, name string) ([]PublishedVersion, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("train: listing versions: %w", err)
	}
	var out []PublishedVersion
	for _, de := range des {
		if de.IsDir() || !strings.HasPrefix(de.Name(), name+"@") {
			continue
		}
		m := publishedVersionRE.FindStringSubmatch(de.Name()[len(name):])
		if m == nil {
			continue
		}
		if iter, err := strconv.Atoi(m[1]); err == nil {
			out = append(out, PublishedVersion{Iter: iter, File: de.Name()})
		}
	}
	slices.SortStableFunc(out, func(a, b PublishedVersion) int { return cmp.Compare(a.Iter, b.Iter) })
	return out, nil
}

// PrunePublishedVersions deletes the oldest pinned version snapshots
// (<name>@<iter>.bin) of a publish target, keeping the newest keep of
// them. The version the "latest" pointer currently targets survives
// regardless of age — pruning must never dangle the pointer a serving
// registry follows, even after a rollback re-pointed it at an old
// version. Returns the paths removed.
func PrunePublishedVersions(spec string, keep int) ([]string, error) {
	if keep < 1 {
		return nil, fmt.Errorf("train: -publish-keep %d, want >= 1", keep)
	}
	latest, name, err := PublishPath(spec)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(latest)
	protected := ""
	if target, err := os.Readlink(latest); err == nil {
		protected = filepath.Base(target)
	}
	vers, err := ListPublishedVersions(dir, name)
	if err != nil {
		return nil, err
	}
	if keep > len(vers) {
		keep = len(vers)
	}
	var pruned []string
	for _, v := range vers[:len(vers)-keep] {
		if v.File == protected {
			continue
		}
		p := filepath.Join(dir, v.File)
		if err := os.Remove(p); err != nil {
			return pruned, fmt.Errorf("train: pruning versions: %w", err)
		}
		pruned = append(pruned, p)
	}
	return pruned, nil
}
