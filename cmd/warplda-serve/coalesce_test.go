package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warplda"
	"warplda/internal/infer"
	"warplda/internal/registry"
)

// Tests for the serve-path coalescing and admission-control layer:
// concurrent single-document requests must merge into fewer engine
// dispatches with byte-identical results, overload must shed with
// retryable 503s while health and admin stay responsive, and a drain
// must answer everything already admitted.

func waitUntil(t testing.TB, d time.Duration, what string, cond func() bool) {
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

// doInfer runs one inference request without t.Fatal-ing, so it is safe
// from non-test goroutines. hdr is optional "Key: Value" pairs.
func doInfer(h http.Handler, body string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestCoalescingMergesConcurrentRequests is the acceptance test for
// request coalescing: N concurrent single-document HTTP requests are
// answered from fewer than N engine dispatches, and every response is
// byte-identical to what uncoalesced inference produces.
func TestCoalescingMergesConcurrentRequests(t *testing.T) {
	const n = 8
	m := trainTestModel(t)
	s, reg := newTestServer(t, ServeOptions{
		Coalesce:    true,
		BatchLinger: 25 * time.Millisecond, // generous so slow-starting goroutines still coalesce
	}, registry.Options{}, map[string]*warplda.Model{"news": m}, "news")
	t.Cleanup(s.Close)

	docs := make([][]int32, n)
	for i := range docs {
		docs[i] = []int32{int32(i % 8), int32((i + 1) % 8), int32((i + 3) % 8)}
	}
	// Golden answers from a private engine so the serving engine's
	// dispatch counters see only the coalesced traffic.
	golden, err := warplda.NewInferEngine(m, warplda.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := golden.InferBatch(docs, 20, 42) // serve defaults: Sweeps 20, Seed 42
	if err != nil {
		t.Fatal(err)
	}

	snap, err := reg.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	before := snap.Engine.Stats()

	var (
		wg   sync.WaitGroup
		gate = make(chan struct{})
		recs = make([]*httptest.ResponseRecorder, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			recs[i] = doInfer(s, fmt.Sprintf(`{"docs": [[%d,%d,%d]]}`, docs[i][0], docs[i][1], docs[i][2]))
		}(i)
	}
	close(gate)
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var resp inferResponse
		if err := decodeBody(rec, &resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(resp.Topics, [][]float64{want[i]}) {
			t.Fatalf("request %d: coalesced result differs from uncoalesced inference", i)
		}
	}

	after := snap.Engine.Stats()
	if got := after.Docs - before.Docs; got != n {
		t.Fatalf("engine saw %d docs, want %d", got, n)
	}
	if got := after.Dispatches - before.Dispatches; got >= n {
		t.Fatalf("%d requests took %d dispatches; coalescing merged nothing", n, got)
	}

	var st statsResponse
	if rec := getJSON(t, s, "/v1/stats", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	bi, ok := st.Batchers["news"]
	if !ok {
		t.Fatal("/v1/stats has no batcher entry for news")
	}
	if bi.Submitted != n || bi.BatchedDocs != n {
		t.Fatalf("batcher stats = %+v, want %d submitted and batched", bi, n)
	}
	if st.LatencyUs.Count != n {
		t.Fatalf("latency histogram recorded %d requests, want %d", st.LatencyUs.Count, n)
	}
}

// gateServer builds a coalescing server whose dispatches block until
// release is closed, for deterministic overload tests.
func gateServer(t *testing.T, opts ServeOptions) (*Server, chan struct{}, chan struct{}) {
	t.Helper()
	m := trainTestModel(t)
	opts.Coalesce = true
	s, _ := newTestServer(t, opts, registry.Options{}, map[string]*warplda.Model{"news": m}, "news")
	t.Cleanup(s.Close)
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	s.dispatchWrap = func(d infer.Dispatch) infer.Dispatch {
		return func(docs [][]int32, sweeps []int) ([][]float64, any, error) {
			entered <- struct{}{}
			<-release
			return d(docs, sweeps)
		}
	}
	return s, entered, release
}

func TestQueueFullShedsWhileAdminResponds(t *testing.T) {
	s, entered, release := gateServer(t, ServeOptions{BatchMax: 1, QueueDepth: 2})

	var wg sync.WaitGroup
	var okCount atomic.Int64
	blocked := func() {
		defer wg.Done()
		if rec := doInfer(s, `{"docs": [[0,1,2]]}`); rec.Code == http.StatusOK {
			okCount.Add(1)
		}
	}
	// One request inside the gated dispatch, two saturating the queue.
	wg.Add(1)
	go blocked()
	<-entered
	wg.Add(2)
	go blocked()
	go blocked()
	waitUntil(t, 5*time.Second, "queue to fill", func() bool {
		return s.batcherFor("news").QueueLen() == 2
	})

	// The next request must shed at admission, not wait.
	rec := doInfer(s, `{"docs": [[3,4,5]]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-queue request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-full 503 has no Retry-After")
	}

	// Health and admin stay responsive while inference is saturated.
	if rec := getJSON(t, s, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/v1/healthz under saturation: %d", rec.Code)
	}
	if rec := getJSON(t, s, "/v1/models", nil); rec.Code != http.StatusOK {
		t.Fatalf("/v1/models under saturation: %d", rec.Code)
	}
	var st statsResponse
	getJSON(t, s, "/v1/stats", &st)
	if st.Batchers["news"].ShedQueueFull < 1 {
		t.Fatalf("stats = %+v, want ShedQueueFull >= 1", st.Batchers["news"])
	}

	close(release)
	wg.Wait()
	if okCount.Load() != 3 {
		t.Fatalf("%d admitted requests succeeded, want 3", okCount.Load())
	}
}

func TestDeadlineExceededWhileQueued(t *testing.T) {
	s, entered, release := gateServer(t, ServeOptions{BatchMax: 1, QueueDepth: 8})

	var wg sync.WaitGroup
	var first, second *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		first = doInfer(s, `{"docs": [[0,1,2]]}`)
	}()
	<-entered

	// 30ms budget, queued behind the gated dispatch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		second = doInfer(s, `{"docs": [[1,2,3]]}`, "X-Deadline-Ms", "30")
	}()
	waitUntil(t, 5*time.Second, "second request to queue", func() bool {
		return s.batcherFor("news").QueueLen() == 1
	})
	time.Sleep(50 * time.Millisecond) // let its deadline lapse in queue
	close(release)
	wg.Wait()

	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", first.Code, first.Body)
	}
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired request: status %d, want 503: %s", second.Code, second.Body)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("deadline 503 has no Retry-After")
	}
	var st statsResponse
	getJSON(t, s, "/v1/stats", &st)
	if st.Batchers["news"].ShedDeadline < 1 {
		t.Fatalf("stats = %+v, want ShedDeadline >= 1", st.Batchers["news"])
	}

	// A malformed deadline header is the caller's error.
	if rec := doInfer(s, `{"docs": [[0]]}`, "X-Deadline-Ms", "soon"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad deadline header: status %d, want 400", rec.Code)
	}
}

func TestCloseDrainsAdmittedRequests(t *testing.T) {
	s, entered, release := gateServer(t, ServeOptions{BatchMax: 1, QueueDepth: 8})

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 3)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = doInfer(s, fmt.Sprintf(`{"docs": [[%d,1,2]]}`, i))
		}(i)
		if i == 0 {
			// The first request loads the model and enters the gated
			// dispatch; sent alongside it, the others can arrive mid-load
			// and be refused, and the queue never reaches two.
			<-entered
		}
	}
	waitUntil(t, 5*time.Second, "requests to queue", func() bool {
		return s.batcherFor("news").QueueLen() == 2
	})

	// Close blocks until the queue drains; the gate must open for it to
	// finish, and everything admitted must still be answered.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	close(release)
	wg.Wait()
	<-closed

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("admitted request %d dropped by drain: status %d", i, rec.Code)
		}
	}
	// After the drain, coalesced inference refuses new work.
	if rec := doInfer(s, `{"docs": [[0,1]]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close request: status %d, want 503", rec.Code)
	}
}

// TestPublishUnderLoadUsesWarmSnapshot drives steady traffic through a
// coalescing server while a new model version is published train-style
// (versioned file first, atomic latest-pointer swap second) and asserts
// zero failed requests and that the swap was answered from the poller's
// prefetched snapshot — no live request waits on an engine build.
func TestPublishUnderLoadUsesWarmSnapshot(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	saveModel(t, filepath.Join(dir, "news@10.bin"), m)
	if err := os.Symlink("news@10.bin", filepath.Join(dir, "news.bin")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	reg, err := registry.Open(dir, registry.Options{ReloadInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	s, err := NewServer(reg, ServeOptions{DefaultModel: "news", Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Load the model before the traffic starts: a request that arrives
	// while the first one is still loading it is refused (503 mid-load),
	// which is admission control and not a failed swap.
	if rec := doInfer(s, `{"docs": [[0,1,2]]}`); rec.Code != http.StatusOK {
		t.Fatalf("first request: status %d", rec.Code)
	}

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		failures atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := doInfer(s, fmt.Sprintf(`{"docs": [[%d,1,2]]}`, w)); rec.Code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}

	// Publish train-style under load.
	saveModel(t, filepath.Join(dir, "news@20.bin"), trainTestModel(t))
	waitUntil(t, 5*time.Second, "warm prefetch", func() bool {
		return reg.RegistryStats().Prefetched >= 1
	})
	tmp := filepath.Join(dir, ".latest-tmp")
	if err := os.Symlink("news@20.bin", tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "news.bin")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "warm hot swap", func() bool {
		mi, _ := reg.Info("news")
		return mi.Version >= 2
	})
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed across the publish swap", failures.Load())
	}
	st := reg.RegistryStats()
	if st.PrefetchHits < 1 {
		t.Fatalf("swap paid a cold build: %+v", st)
	}
}
