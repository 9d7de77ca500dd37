package registry

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"warplda"
	"warplda/internal/train"
)

// tinyModel trains a small model with the given topic count. Different
// K gives different response dimensions AND different file sizes, so
// swaps are observable both semantically and by the size+mtime poll.
func tinyModel(t testing.TB, k int, seed uint64) *warplda.Model {
	t.Helper()
	c, err := warplda.GenerateLDA(warplda.SyntheticConfig{
		D: 30, V: 60, K: k, MeanLen: 20, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := warplda.Train(c, warplda.Defaults(k), 10)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// writeModel writes m to path atomically, the way warplda-train -save
// does in production (Model.WriteFile: temp + rename).
func writeModel(t testing.TB, path string, m *warplda.Model) {
	t.Helper()
	if _, err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func openTestRegistry(t *testing.T, opts Options) (string, *Registry) {
	t.Helper()
	dir := t.TempDir()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return dir, r
}

func TestAcquireLoadsFileAndSubdirLayouts(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	writeModel(t, filepath.Join(dir, "flat.bin"), tinyModel(t, 2, 1))
	if err := os.Mkdir(filepath.Join(dir, "nested"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeModel(t, filepath.Join(dir, "nested", "model.bin"), tinyModel(t, 3, 2))

	flat, err := r.Acquire("flat")
	if err != nil {
		t.Fatal(err)
	}
	if flat.Model.Cfg.K != 2 || flat.Engine.K() != 2 || flat.Version != 1 {
		t.Fatalf("flat: K=%d engine K=%d version=%d", flat.Model.Cfg.K, flat.Engine.K(), flat.Version)
	}
	nested, err := r.Acquire("nested")
	if err != nil {
		t.Fatal(err)
	}
	if nested.Model.Cfg.K != 3 {
		t.Fatalf("nested: K=%d", nested.Model.Cfg.K)
	}
	if flat.Bytes <= 0 || nested.Bytes <= 0 {
		t.Fatalf("unaccounted snapshots: %d, %d", flat.Bytes, nested.Bytes)
	}

	// Second acquire is a cache hit on the same snapshot.
	again, err := r.Acquire("flat")
	if err != nil {
		t.Fatal(err)
	}
	if again != flat {
		t.Fatal("cache hit returned a different snapshot")
	}
	mi, ok := r.Info("flat")
	if !ok || mi.State != "ready" || mi.Hits != 2 || mi.Loads != 1 {
		t.Fatalf("flat info = %+v", mi)
	}
	st := r.RegistryStats()
	if st.Ready != 2 || st.BytesResident != flat.Bytes+nested.Bytes {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAcquireRejectsUnknownAndBadNames(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	writeModel(t, filepath.Join(dir, "ok.bin"), tinyModel(t, 2, 1))

	if _, err := r.Acquire("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	for _, name := range []string{"..", "a/b", "../ok", ".hidden", "", "a b"} {
		if _, err := r.Acquire(name); !errors.Is(err, ErrBadName) {
			t.Fatalf("%q: %v, want ErrBadName", name, err)
		}
	}
	// Failed lookups must not leak entries.
	if _, ok := r.Info("missing"); ok {
		t.Fatal("missing name left an entry behind")
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	dir := t.TempDir()
	models := map[string]*warplda.Model{
		"a": tinyModel(t, 2, 1),
		"b": tinyModel(t, 2, 2),
		"c": tinyModel(t, 2, 3),
	}
	var one int64
	for name, m := range models {
		writeModel(t, filepath.Join(dir, name+".bin"), m)
		one = max(one, snapshotBytes(t, m))
	}
	// Budget for two models, not three.
	budget := one*2 + one/2
	r, err := Open(dir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Acquire(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st := r.RegistryStats()
	if st.BytesResident > budget {
		t.Fatalf("resident %d bytes over budget %d", st.BytesResident, budget)
	}
	if st.Evictions != 1 || st.Ready != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 ready", st)
	}
	mi, _ := r.Info("a")
	if mi.State != "evicted" || mi.Evictions != 1 {
		t.Fatalf("a info = %+v, want evicted", mi)
	}

	// Re-acquiring the evicted model reloads it and evicts the new LRU
	// tail, which is b (c was used more recently).
	snap, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Fatalf("a version = %d, want 2 after reload", snap.Version)
	}
	if mi, _ := r.Info("b"); mi.State != "evicted" {
		t.Fatalf("b info = %+v, want evicted (LRU order)", mi)
	}
	if mi, _ := r.Info("c"); mi.State != "ready" {
		t.Fatalf("c info = %+v, want ready", mi)
	}
	if st := r.RegistryStats(); st.BytesResident > budget {
		t.Fatalf("resident %d bytes over budget %d", st.BytesResident, budget)
	}
}

func TestAcquireOverCapacityModel(t *testing.T) {
	dir, r := openTestRegistry(t, Options{MaxBytes: 128})
	writeModel(t, filepath.Join(dir, "big.bin"), tinyModel(t, 2, 1))
	if _, err := r.Acquire("big"); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("got %v, want ErrOverCapacity", err)
	}
	mi, ok := r.Info("big")
	if !ok || mi.State != "failed" || mi.LastError == "" {
		t.Fatalf("big info = %+v", mi)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHotReloadSwapsModel(t *testing.T) {
	dir, r := openTestRegistry(t, Options{ReloadInterval: 2 * time.Millisecond})
	path := filepath.Join(dir, "m.bin")
	writeModel(t, path, tinyModel(t, 2, 1))

	old, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if old.Model.Cfg.K != 2 {
		t.Fatalf("K = %d", old.Model.Cfg.K)
	}

	writeModel(t, path, tinyModel(t, 4, 2))
	waitFor(t, 5*time.Second, "hot reload", func() bool {
		mi, _ := r.Info("m")
		return mi.Version >= 2
	})
	snap, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Model.Cfg.K != 4 {
		t.Fatalf("post-swap K = %d, want 4", snap.Model.Cfg.K)
	}
	// The old snapshot is untouched — in-flight requests that acquired
	// it keep a consistent model+engine pair.
	if old.Model.Cfg.K != 2 || old.Engine.K() != 2 {
		t.Fatal("hot swap mutated the old snapshot")
	}
	mi, _ := r.Info("m")
	if mi.Loads != 2 || mi.State != "ready" {
		t.Fatalf("info = %+v", mi)
	}
}

func TestHotReloadRejectsCorruptFileAndRecovers(t *testing.T) {
	dir, r := openTestRegistry(t, Options{ReloadInterval: 2 * time.Millisecond})
	path := filepath.Join(dir, "m.bin")
	writeModel(t, path, tinyModel(t, 2, 1))
	if _, err := r.Acquire("m"); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: valid prefix, missing tail. The CRC/EOF
	// checks must reject it and the old snapshot must keep serving.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "reload error", func() bool {
		mi, _ := r.Info("m")
		return mi.LastError != ""
	})
	snap, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Model.Cfg.K != 2 || snap.Version != 1 {
		t.Fatalf("torn file replaced the model: K=%d version=%d", snap.Model.Cfg.K, snap.Version)
	}

	// The writer finishes: the next poll picks the new model up and
	// clears the error.
	writeModel(t, path, tinyModel(t, 3, 9))
	waitFor(t, 5*time.Second, "recovery reload", func() bool {
		mi, _ := r.Info("m")
		return mi.Version >= 2 && mi.LastError == ""
	})
	snap, err = r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Model.Cfg.K != 3 {
		t.Fatalf("post-recovery K = %d, want 3", snap.Model.Cfg.K)
	}
}

func TestConcurrentColdAcquires(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	writeModel(t, filepath.Join(dir, "m.bin"), tinyModel(t, 2, 1))

	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, loading int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := r.Acquire("m")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && snap != nil:
				ok++
			case errors.Is(err, ErrLoading):
				loading++
			default:
				t.Errorf("unexpected result: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no goroutine ever got the model")
	}
	if ok+loading != n {
		t.Fatalf("ok=%d loading=%d, want sum %d", ok, loading, n)
	}
	// Once resident, everyone hits.
	if _, err := r.Acquire("m"); err != nil {
		t.Fatal(err)
	}
}

func TestListMergesDiskAndResident(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	writeModel(t, filepath.Join(dir, "loaded.bin"), tinyModel(t, 2, 1))
	writeModel(t, filepath.Join(dir, "cold.bin"), tinyModel(t, 2, 2))
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("loaded"); err != nil {
		t.Fatal(err)
	}

	list := r.List()
	if len(list) != 2 {
		t.Fatalf("list = %+v, want 2 models", list)
	}
	if list[0].Name != "cold" || list[0].State != "available" {
		t.Fatalf("list[0] = %+v", list[0])
	}
	if list[1].Name != "loaded" || list[1].State != "ready" || list[1].Bytes <= 0 {
		t.Fatalf("list[1] = %+v", list[1])
	}
}

func TestRestrictHidesSiblings(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, filepath.Join(dir, "public.bin"), tinyModel(t, 2, 1))
	writeModel(t, filepath.Join(dir, "secret.bin"), tinyModel(t, 2, 2))
	r, err := Open(dir, Options{Restrict: []string{"public"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.Acquire("public"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("secret"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restricted sibling served: %v", err)
	}
	list := r.List()
	if len(list) != 1 || list[0].Name != "public" {
		t.Fatalf("restricted list leaked siblings: %+v", list)
	}
	if _, ok := r.Info("secret"); ok {
		t.Fatal("Info leaked a restricted sibling")
	}
}

func TestFailedLoadIsNegativelyCached(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	path := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(path, []byte("WARPLDA\x02garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err1 := r.Acquire("bad")
	if err1 == nil {
		t.Fatal("corrupt model accepted")
	}
	_, err2 := r.Acquire("bad")
	if err2 == nil {
		t.Fatal("corrupt model accepted on retry")
	}
	// The identical error VALUE proves the cache answered — the file
	// was not re-read and no engine build was attempted.
	if err1 != err2 {
		t.Fatalf("retry re-paid the load: %v vs %v", err1, err2)
	}
	mi, _ := r.Info("bad")
	if mi.State != "failed" || mi.LastError == "" {
		t.Fatalf("info = %+v", mi)
	}

	// Replacing the file invalidates the cache and recovers.
	writeModel(t, path, tinyModel(t, 3, 5))
	snap, err := r.Acquire("bad")
	if err != nil {
		t.Fatalf("fixed file still refused: %v", err)
	}
	if snap.Model.Cfg.K != 3 {
		t.Fatalf("K = %d", snap.Model.Cfg.K)
	}
}

func TestCloseStopsRegistry(t *testing.T) {
	dir, r := openTestRegistry(t, Options{ReloadInterval: time.Millisecond})
	writeModel(t, filepath.Join(dir, "m.bin"), tinyModel(t, 2, 1))
	if _, err := r.Acquire("m"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, err := r.Acquire("m"); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// symlinkLatest atomically points <base>.bin at target (a sibling file
// name), the way train-side publishing swaps the latest pointer: temp
// symlink + rename.
func symlinkLatest(t *testing.T, dir, base, target string) {
	t.Helper()
	tmp := filepath.Join(dir, ".latest-tmp")
	os.Remove(tmp)
	if err := os.Symlink(target, tmp); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, base+".bin")); err != nil {
		t.Fatal(err)
	}
}

func TestWarmPrefetchServesPublishSwap(t *testing.T) {
	dir, r := openTestRegistry(t, Options{ReloadInterval: 2 * time.Millisecond})
	writeModel(t, filepath.Join(dir, "news@10.bin"), tinyModel(t, 2, 1))
	symlinkLatest(t, dir, "news", "news@10.bin")
	if _, err := r.Acquire("news"); err != nil {
		t.Fatal(err)
	}

	// Publish the versioned file only — the latest pointer still targets
	// @10. The poller must prebuild @20 without swapping anything.
	writeModel(t, filepath.Join(dir, "news@20.bin"), tinyModel(t, 4, 2))
	waitFor(t, 5*time.Second, "warm prefetch", func() bool {
		return r.RegistryStats().Prefetched >= 1
	})
	st := r.RegistryStats()
	if st.WarmReady != 1 {
		t.Fatalf("WarmReady = %d, want 1", st.WarmReady)
	}
	snap, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Model.Cfg.K != 2 {
		t.Fatalf("prefetch leaked into serving: K = %d, want 2", snap.Model.Cfg.K)
	}

	// The versioned name loads from the warm entry too: the cache is
	// shared, not consumed, and each consumer gets its own Version.
	// (This must happen before the swap — once @20 is serving, the
	// poller prunes its warm entry as stale.)
	vsnap, err := r.Acquire("news@20")
	if err != nil {
		t.Fatal(err)
	}
	if vsnap.Model.Cfg.K != 4 || vsnap.Version != 1 {
		t.Fatalf("versioned acquire: K = %d Version = %d", vsnap.Model.Cfg.K, vsnap.Version)
	}
	if got := r.RegistryStats().PrefetchHits; got < 1 {
		t.Fatalf("PrefetchHits = %d, want >= 1", got)
	}

	// Swap the pointer. The reload must install the prebuilt snapshot:
	// PrefetchHits advances and the recorded load duration is zero (no
	// read, no engine build on the swap path).
	symlinkLatest(t, dir, "news", "news@20.bin")
	waitFor(t, 5*time.Second, "warm hot swap", func() bool {
		mi, _ := r.Info("news")
		return mi.Version >= 2
	})
	snap, err = r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Model.Cfg.K != 4 {
		t.Fatalf("post-swap K = %d, want 4", snap.Model.Cfg.K)
	}
	if got := r.RegistryStats().PrefetchHits; got < 2 {
		t.Fatalf("PrefetchHits = %d, want >= 2", got)
	}
	mi, _ := r.Info("news")
	if mi.LoadMs != 0 {
		t.Fatalf("swap paid a cold build: LoadMs = %v, want 0", mi.LoadMs)
	}
	if snap.Version != 2 || vsnap.Version != 1 {
		t.Fatalf("shared warm snapshot leaked Version across consumers: base %d pinned %d", snap.Version, vsnap.Version)
	}

	// With @20 serving, the warm entry is stale; the poller sweeps it.
	waitFor(t, 5*time.Second, "stale warm entry sweep", func() bool {
		return r.RegistryStats().WarmReady == 0
	})
}

func TestWarmPrefetchSteadyStateIsIdle(t *testing.T) {
	dir, r := openTestRegistry(t, Options{ReloadInterval: 2 * time.Millisecond})
	writeModel(t, filepath.Join(dir, "m@5.bin"), tinyModel(t, 2, 1))
	symlinkLatest(t, dir, "m", "m@5.bin")
	if _, err := r.Acquire("m"); err != nil {
		t.Fatal(err)
	}
	// The newest versioned file IS the serving file (the symlink
	// resolves to it), so nothing should ever be warmed.
	time.Sleep(30 * time.Millisecond)
	st := r.RegistryStats()
	if st.Prefetched != 0 || st.WarmReady != 0 {
		t.Fatalf("steady state warmed something: %+v", st)
	}
}

// snapshotBytes is the accounted resident size the registry gives m:
// the model as ReadInferEngine loads it (C_k and vocabulary, no C_wk)
// plus its inference engine's rows and tables.
func snapshotBytes(t *testing.T, m *warplda.Model) int64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	served, eng, err := warplda.ReadInferEngine(&buf, warplda.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return served.SizeBytes() + eng.MemoryBytes()
}

// A hot reload that grows a model past the room left in the budget
// evicts the least-recently-used other model, not the one it swapped.
func TestReloadGrowthEvictsLRUTail(t *testing.T) {
	small := map[string]*warplda.Model{"a": tinyModel(t, 2, 1), "b": tinyModel(t, 2, 2), "m": tinyModel(t, 2, 3)}
	big := tinyModel(t, 16, 4)
	var one int64
	for _, m := range small {
		one = max(one, snapshotBytes(t, m))
	}
	grown := snapshotBytes(t, big)
	if 2*grown < 3*one {
		t.Fatalf("grown model %d bytes is not 1.5× a small one (%d)", grown, one)
	}
	// Room for three small models, or the grown one and one small one.
	budget := grown + one + one/2
	dir := t.TempDir()
	for name, m := range small {
		writeModel(t, filepath.Join(dir, name+".bin"), m)
	}
	r, err := Open(dir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{"a", "b", "m"} {
		if _, err := r.Acquire(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if st := r.RegistryStats(); st.Ready != 3 || st.Evictions != 0 {
		t.Fatalf("before the reload: %+v", st)
	}

	writeModel(t, filepath.Join(dir, "m.bin"), big)
	r.pollOnce()

	st := r.RegistryStats()
	if st.BytesResident > budget {
		t.Fatalf("resident %d bytes over budget %d", st.BytesResident, budget)
	}
	if st.Evictions != 1 || st.Ready != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 ready", st)
	}
	if mi, _ := r.Info("a"); mi.State != "evicted" {
		t.Fatalf("a info = %+v, want evicted (LRU tail)", mi)
	}
	if mi, _ := r.Info("b"); mi.State != "ready" {
		t.Fatalf("b info = %+v, want ready", mi)
	}
	mi, _ := r.Info("m")
	if mi.State != "ready" || mi.Version != 2 || mi.K != 16 {
		t.Fatalf("m info = %+v, want the reloaded K=16 model ready at version 2", mi)
	}
}

// A reload whose model alone exceeds the budget is refused: the old
// snapshot keeps serving at its version and last_error names the budget.
func TestOverBudgetReloadKeepsOldSnapshot(t *testing.T) {
	m0, big := tinyModel(t, 2, 1), tinyModel(t, 64, 2)
	budget := snapshotBytes(t, m0) * 2
	if snapshotBytes(t, big) <= budget {
		t.Fatal("grown model fits the budget; the test needs a larger one")
	}
	dir, r := openTestRegistry(t, Options{MaxBytes: budget})
	path := filepath.Join(dir, "m.bin")
	writeModel(t, path, m0)
	old, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}

	writeModel(t, path, big)
	r.pollOnce()

	snap, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	if snap != old || snap.Version != 1 {
		t.Fatalf("over-budget reload swapped the snapshot: version %d", snap.Version)
	}
	mi, _ := r.Info("m")
	if mi.Version != 1 || !strings.Contains(mi.LastError, "budget") {
		t.Fatalf("info = %+v, want version 1 and a last_error naming the budget", mi)
	}
	if st := r.RegistryStats(); st.BytesResident != old.Bytes {
		t.Fatalf("resident %d bytes, want the old snapshot's %d", st.BytesResident, old.Bytes)
	}
}

// TestRejectedFileIsReadOnce: a file the poller refuses is read once,
// not once per tick. After the first refusal, 50 idle polls allocate
// less than the refused file's size (one read of it would cost more),
// the old snapshot keeps serving, a good file swapped in by atomic
// rename loads, and that load drops the model's refusals.
func TestRejectedFileIsReadOnce(t *testing.T) {
	// K=512 over V=240 words is a ≈0.5 MB file: one read of it dwarfs
	// a poll's own allocations (a directory listing and a few stats),
	// even under the race detector, which drops pooled buffers at random.
	c, err := warplda.GenerateLDA(warplda.SyntheticConfig{D: 30, V: 240, K: 512, MeanLen: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	big, err := warplda.Train(c, warplda.Defaults(512), 10)
	if err != nil {
		t.Fatal(err)
	}
	bigFile := filepath.Join(t.TempDir(), "big.bin")
	writeModel(t, bigFile, big)
	bigBytes, err := os.ReadFile(bigFile)
	if err != nil {
		t.Fatal(err)
	}
	// The registry accounts a model by its rows, 24 bytes per nonzero
	// count and a file holds 4 per cell, so only a dense model outgrows
	// a budget its file fits: dense is big with every count at least 1.
	dense := *big
	dense.Cw, dense.Ck = append([]int32(nil), big.Cw...), append([]int64(nil), big.Ck...)
	for i, c := range dense.Cw {
		if c == 0 {
			dense.Cw[i] = 1
			dense.Ck[i%dense.Cfg.K]++
		}
	}
	good := tinyModel(t, 3, 9)

	cases := []struct {
		name     string
		maxBytes int64
		setup    func(t *testing.T, dir string) string // returns the served name
		reject   func(t *testing.T, dir string) string // returns the refused file
		recover  func(t *testing.T, dir string)
	}{
		{
			name: "torn base rewrite",
			setup: func(t *testing.T, dir string) string {
				writeModel(t, filepath.Join(dir, "m.bin"), big)
				return "m"
			},
			reject: func(t *testing.T, dir string) string {
				p := filepath.Join(dir, "m.bin")
				if err := os.WriteFile(p, bigBytes[:len(bigBytes)-64], 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			},
			recover: func(t *testing.T, dir string) { writeModel(t, filepath.Join(dir, "m.bin"), good) },
		},
		{
			name: "over-budget reload",
			// The file fits by size, so it is read once; its engine does not.
			maxBytes: snapshotBytes(t, &dense) - 1,
			setup: func(t *testing.T, dir string) string {
				writeModel(t, filepath.Join(dir, "m.bin"), tinyModel(t, 2, 1))
				return "m"
			},
			reject: func(t *testing.T, dir string) string {
				p := filepath.Join(dir, "m.bin")
				writeModel(t, p, &dense)
				return p
			},
			recover: func(t *testing.T, dir string) { writeModel(t, filepath.Join(dir, "m.bin"), good) },
		},
		{
			name: "bit-flipped newest version",
			setup: func(t *testing.T, dir string) string {
				writeModel(t, filepath.Join(dir, "news@10.bin"), tinyModel(t, 2, 1))
				symlinkLatest(t, dir, "news", "news@10.bin")
				return "news"
			},
			reject: func(t *testing.T, dir string) string {
				p := filepath.Join(dir, "news@20.bin")
				b := append([]byte(nil), bigBytes...)
				b[len(b)/2] ^= 0x20
				if err := os.WriteFile(p, b, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			},
			recover: func(t *testing.T, dir string) {
				writeModel(t, filepath.Join(dir, "news@20.bin"), good)
				symlinkLatest(t, dir, "news", "news@20.bin")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, r := openTestRegistry(t, Options{MaxBytes: tc.maxBytes})
			name := tc.setup(t, dir)
			old, err := r.Acquire(name)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(tc.reject(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			r.pollOnce() // the one read

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				r.pollOnce()
			}
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("50 idle polls allocated %d bytes; refused file is %d", alloc, fi.Size())
			if alloc >= uint64(fi.Size()) {
				t.Fatalf("50 idle polls allocated %d bytes, more than one read of the %d-byte refused file", alloc, fi.Size())
			}
			if snap, err := r.Acquire(name); err != nil || snap != old {
				t.Fatalf("old snapshot stopped serving: %v", err)
			}

			tc.recover(t, dir)
			r.pollOnce()
			snap, err := r.Acquire(name)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Model.Cfg.K != 3 || snap.Version != 2 {
				t.Fatalf("good file not loaded: K=%d version=%d", snap.Model.Cfg.K, snap.Version)
			}
			if mi, _ := r.Info(name); mi.LastError != "" {
				t.Fatalf("last_error survived the good load: %q", mi.LastError)
			}
			r.mu.Lock()
			refusals := len(r.neg)
			r.mu.Unlock()
			if refusals != 0 {
				t.Fatalf("%d refusals survived the good load", refusals)
			}
		})
	}
}

// The serving path holds a model as compact rows: a cold load, a delta
// fold and the chain fingerprint it checks allocate far less than one
// V×K int32 matrix on a model with a large V·K and few nonzeros (here
// 32 MiB of cells, about 20,000 of them nonzero).
func TestServedPathAllocatesNoDenseMatrix(t *testing.T) {
	const v, k = 512, 16384
	dir, r := openTestRegistry(t, Options{})
	func() {
		rng := rand.New(rand.NewSource(1))
		m := &warplda.Model{Cfg: warplda.Config{K: k, Alpha: 0.1, Beta: 0.01}, V: v,
			Cw: make([]int32, v*k), Ck: make([]int64, k)}
		for i := 0; i < 20000; i++ {
			m.Cw[rng.Intn(v*k)] += int32(rng.Intn(9) + 1)
		}
		for i, c := range m.Cw {
			m.Ck[i%k] += int64(c)
		}
		writeModel(t, filepath.Join(dir, "big.bin"), m)
		dc, err := train.NewDeltaChain(filepath.Join(dir, "big"), v, k, m.Cw, m.Ck)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			j := rng.Intn(v * k)
			m.Cw[j]++
			m.Ck[j%k]++
		}
		if _, err := dc.Publish(m.Cw, m.Ck, 20, -1); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.Acquire("big"); err != nil {
		t.Fatal(err)
	}
	r.pollOnce()
	runtime.ReadMemStats(&after)

	if mi, _ := r.Info("big"); mi.Generation != 1 || mi.LastError != "" {
		t.Fatalf("info = %+v, want the delta folded", mi)
	}
	alloc, dense := after.TotalAlloc-before.TotalAlloc, uint64(v*k*4)
	t.Logf("cold load and fold allocated %d bytes; one V×K int32 matrix is %d", alloc, dense)
	if alloc >= dense {
		t.Fatalf("cold load and fold allocated %d bytes, at least one V×K int32 matrix (%d)", alloc, dense)
	}
}
