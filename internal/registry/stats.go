package registry

import (
	"os"
	"path/filepath"
	"sort"
	"strings"

	"warplda/internal/train"
)

// Introspection for the GET /v1/models admin API: per-model lifecycle
// stats and registry-wide accounting. Everything here is a consistent
// point-in-time copy taken under the registry lock; the JSON tags are
// the wire format cmd/warplda-serve exposes.

// ModelInfo describes one model the registry knows about: resident
// ("ready"), mid-load ("loading"), dropped under memory pressure
// ("evicted"), broken ("failed"), or present on disk but never yet
// requested ("available").
type ModelInfo struct {
	Name  string `json:"name"`
	State string `json:"state"`

	// Dimensions and accounting of the resident snapshot; zero unless
	// State == "ready".
	V       int   `json:"v,omitempty"`
	K       int   `json:"k,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	Version int   `json:"version,omitempty"`

	// Generation is the resident snapshot's delta-chain position: 0
	// right after a file load, g after folding WARPDLT deltas 1..g.
	// Meaningful only when State == "ready".
	Generation int64 `json:"generation"`

	// Lifecycle counters. Hits counts Acquire calls answered from this
	// entry; Loads counts successful (re)loads; Evictions counts LRU
	// drops.
	Hits      int64 `json:"hits"`
	Loads     int   `json:"loads"`
	Evictions int   `json:"evictions"`

	// LoadMs is the duration of the last successful load (file read +
	// engine build).
	LoadMs float64 `json:"load_ms,omitempty"`
	// LoadedAt is the last successful load time, RFC 3339, empty if
	// never loaded.
	LoadedAt string `json:"loaded_at,omitempty"`
	// LastError is the most recent load/reload failure, empty when the
	// last operation succeeded.
	LastError string `json:"last_error,omitempty"`

	// Versions lists the published <name>@<iter>.bin siblings of a base
	// model, oldest first — the handles a drift query pins (only set by
	// Info, and only for base names).
	Versions []VersionInfo `json:"versions,omitempty"`
}

// VersionInfo identifies one published training iteration of a model:
// a <base>@<iter>.bin sibling servable under the name "<base>@<iter>".
type VersionInfo struct {
	Name string `json:"name"`
	Iter int    `json:"iter"`
}

// Stats is registry-wide accounting.
type Stats struct {
	// Dir is the model directory the registry serves.
	Dir string `json:"dir"`
	// BytesResident is the accounted size of all resident snapshots;
	// MaxBytes is the LRU budget (0 = unlimited).
	BytesResident int64 `json:"bytes_resident"`
	MaxBytes      int64 `json:"max_bytes"`
	// Ready is the number of resident models; Evictions the total LRU
	// drops over the registry's lifetime.
	Ready     int   `json:"ready"`
	Evictions int64 `json:"evictions"`
	// Prefetched counts versioned snapshots the poller prebuilt ahead
	// of a latest-pointer swap; PrefetchHits counts loads answered from
	// one (a hit means the swap paid no engine build). WarmReady is the
	// number of prebuilt snapshots currently waiting, at most one per
	// base model; their bytes are NOT in BytesResident until installed.
	Prefetched   int64 `json:"prefetched"`
	PrefetchHits int64 `json:"prefetch_hits"`
	WarmReady    int   `json:"warm_ready"`
	// Incremental refresh: DeltasApplied counts WARPDLT deltas folded
	// into live engines; DeltaRejected counts delta files refused by
	// chain validation (CRC, fingerprint, generation, dims, budget);
	// FoldMs is the cumulative fold wall time (validate + count patch +
	// touched-word alias rebuilds, all off the request path); and
	// WordsRebuilt counts the per-word alias tables those folds rebuilt
	// — the work a full reload would have paid V times per swap.
	DeltasApplied int64   `json:"deltas_applied"`
	DeltaRejected int64   `json:"delta_rejected"`
	FoldMs        float64 `json:"fold_ms"`
	WordsRebuilt  int64   `json:"words_rebuilt"`
}

func (e *entry) info() ModelInfo {
	mi := ModelInfo{
		Name:      e.name,
		State:     stateNames[e.state],
		Hits:      e.hits,
		Loads:     e.loads,
		Evictions: e.evictions,
		LastError: e.lastErr,
	}
	if e.state == stateReady {
		mi.V = e.snap.Model.V
		mi.K = e.snap.Model.Cfg.K
		mi.Bytes = e.snap.Bytes
		mi.Version = e.snap.Version
		mi.Generation = e.snap.gen
	}
	if !e.loadedAt.IsZero() {
		mi.LoadMs = float64(e.loadDur.Microseconds()) / 1000
		mi.LoadedAt = e.loadedAt.UTC().Format("2006-01-02T15:04:05.000Z07:00")
	}
	return mi
}

// Info returns the stats of one known model. The second result is
// false when the registry has no entry for the name AND no file on disk
// offers one.
func (r *Registry) Info(name string) (ModelInfo, bool) {
	r.mu.Lock()
	e := r.entries[name]
	if e != nil {
		mi := e.info()
		r.mu.Unlock()
		mi.Versions = r.Versions(name) // disk scan, off the lock
		return mi, true
	}
	r.mu.Unlock()
	if _, _, err := r.resolvePath(name); err == nil {
		return ModelInfo{Name: name, State: "available", Versions: r.Versions(name)}, true
	}
	return ModelInfo{}, false
}

// Versions lists the published versioned siblings <base>@<iter>.bin of
// a base model, sorted oldest first. Each is servable (and therefore
// pinnable by a drift query) under the name "<base>@<iter>". Versioned
// names and unknown bases return nil.
func (r *Registry) Versions(base string) []VersionInfo {
	if strings.Contains(base, "@") {
		return nil
	}
	vers, _ := train.ListPublishedVersions(r.dir, base)
	var out []VersionInfo
	for _, v := range vers {
		out = append(out, VersionInfo{Name: strings.TrimSuffix(v.File, ".bin"), Iter: v.Iter})
	}
	return out
}

// List returns every model the registry knows about — resident,
// evicted, failed, and on-disk-but-unrequested — sorted by name.
func (r *Registry) List() []ModelInfo {
	seen := make(map[string]ModelInfo)
	r.mu.Lock()
	for name, e := range r.entries {
		seen[name] = e.info()
	}
	r.mu.Unlock()
	for _, name := range r.scan() {
		if _, ok := seen[name]; !ok {
			seen[name] = ModelInfo{Name: name, State: "available"}
		}
	}
	out := make([]ModelInfo, 0, len(seen))
	for _, mi := range seen {
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// scan discovers model names on disk: <name>.bin files and <name>/
// subdirectories holding a model.bin. Names the registry would refuse
// to serve (nameRE, the Restrict allowlist) are skipped.
func (r *Registry) scan() []string {
	des, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, de := range des {
		name := de.Name()
		switch {
		case !de.IsDir() && strings.HasSuffix(name, ".bin"):
			name = strings.TrimSuffix(name, ".bin")
		case de.IsDir():
			if fi, err := os.Stat(filepath.Join(r.dir, name, "model.bin")); err != nil || !fi.Mode().IsRegular() {
				continue
			}
		default:
			continue
		}
		if nameRE.MatchString(name) && (r.restrict == nil || r.restrict[name]) {
			names = append(names, name)
		}
	}
	return names
}

// RegistryStats returns the registry-wide accounting snapshot.
func (r *Registry) RegistryStats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	ready := 0
	for _, e := range r.entries {
		if e.state == stateReady {
			ready++
		}
	}
	return Stats{
		Dir:           r.dir,
		BytesResident: r.bytes,
		MaxBytes:      r.opts.MaxBytes,
		Ready:         ready,
		Evictions:     r.evicted,
		Prefetched:    r.prefetched,
		PrefetchHits:  r.prefetchHits,
		WarmReady:     len(r.warm),
		DeltasApplied: r.deltasApplied,
		DeltaRejected: r.deltaRejected,
		FoldMs:        float64(r.foldDur.Microseconds()) / 1000,
		WordsRebuilt:  r.wordsRebuilt,
	}
}
