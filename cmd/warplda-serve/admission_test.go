package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warplda"
	"warplda/internal/registry"
)

// Tests for the serve path's one admission gate per model: overload
// must shed with retryable 503s while health and admin stay
// responsive, single- and multi-document infers and queries must all
// pass the same gate, and a name that does not resolve must leave
// nothing behind.

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

// admissionServer builds a server over the toy model "news" (the
// default model) and loads it, so a test's first request is not the
// one that pays the load.
func admissionServer(t *testing.T, opts ServeOptions) *Server {
	t.Helper()
	m := trainTestModel(t)
	s, reg := newTestServer(t, opts, registry.Options{}, map[string]*warplda.Model{"news": m}, "news")
	if _, err := reg.Acquire("news"); err != nil {
		t.Fatal(err)
	}
	return s
}

// holdSlots takes n of the model's gate slots, as n in-flight requests
// would, and returns the functions that free them one at a time.
func holdSlots(t *testing.T, s *Server, name string, n int) []func() {
	t.Helper()
	frees := make([]func(), n)
	for i := range frees {
		free, err := s.gateFor(name).Enter(time.Time{})
		if err != nil {
			t.Fatalf("holding slot %d: %v", i, err)
		}
		frees[i] = free
		t.Cleanup(free)
	}
	return frees
}

// errorCode reads the error envelope's code, or "" when there is none.
func errorCode(rec *httptest.ResponseRecorder) string {
	var e errorEnvelope
	_ = json.Unmarshal(rec.Body.Bytes(), &e)
	return e.Error.Code
}

func TestQueueFullShedsWhileAdminResponds(t *testing.T) {
	s := admissionServer(t, ServeOptions{QueueDepth: 2})
	frees := holdSlots(t, s, "news", 2)

	// The next request must shed at admission, not wait.
	rec := doInfer(s, `{"docs": [[3,4,5]]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-queue request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-full 503 has no Retry-After")
	}
	// Queries pass the same gate.
	if rec := getJSON(t, s, "/v1/models/news/query/topwords", nil); rec.Code != http.StatusServiceUnavailable || errorCode(rec) != codeQueueFull {
		t.Fatalf("over-queue query: status %d code %q, want 503 %q", rec.Code, errorCode(rec), codeQueueFull)
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
	if st.Gates["news"].ShedQueueFull < 2 {
		t.Fatalf("stats = %+v, want ShedQueueFull >= 2", st.Gates["news"])
	}

	frees[0]()
	if rec := doInfer(s, `{"docs": [[3,4,5]]}`); rec.Code != http.StatusOK {
		t.Fatalf("request after a slot freed: status %d: %s", rec.Code, rec.Body)
	}
}

func TestDeadlineExceededWhileQueued(t *testing.T) {
	s := admissionServer(t, ServeOptions{QueueDepth: 1})
	holdSlots(t, s, "news", 1)

	// 30ms budget, waiting behind the held slot.
	start := time.Now()
	rec := doInfer(s, `{"docs": [[1,2,3]]}`, "X-Deadline-Ms", "30")
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("request shed after %v, before its 30ms deadline", waited)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired request: status %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("deadline 503 has no Retry-After")
	}
	var st statsResponse
	getJSON(t, s, "/v1/stats", &st)
	if st.Gates["news"].ShedDeadline < 1 {
		t.Fatalf("stats = %+v, want ShedDeadline >= 1", st.Gates["news"])
	}

	// A malformed deadline header is the caller's error.
	if rec := doInfer(s, `{"docs": [[0]]}`, "X-Deadline-Ms", "soon"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad deadline header: status %d, want 400", rec.Code)
	}
}

// TestMultiDocInferAdmission pins that a multi-document infer is
// admitted like any other request: shed when the model's gate is full
// and it has no deadline, shed when its deadline passes first, and
// answered once a slot frees.
func TestMultiDocInferAdmission(t *testing.T) {
	const body = `{"docs": [[0,1,2],[3,4,5]]}`
	s := admissionServer(t, ServeOptions{QueueDepth: 2})
	frees := holdSlots(t, s, "news", 2)

	rec := doInfer(s, body)
	if rec.Code != http.StatusServiceUnavailable || errorCode(rec) != codeQueueFull {
		t.Fatalf("no deadline: status %d code %q, want 503 %q", rec.Code, errorCode(rec), codeQueueFull)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-full 503 has no Retry-After")
	}

	start := time.Now()
	rec = doInfer(s, body, "X-Deadline-Ms", "30")
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("request shed after %v, before its 30ms deadline", waited)
	}
	if rec.Code != http.StatusServiceUnavailable || errorCode(rec) != codeDeadlineExceeded {
		t.Fatalf("deadline: status %d code %q, want 503 %q", rec.Code, errorCode(rec), codeDeadlineExceeded)
	}

	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- doInfer(s, body, "X-Deadline-Ms", "10000") }()
	select {
	case rec := <-done:
		t.Fatalf("request answered with every slot held: status %d", rec.Code)
	case <-time.After(20 * time.Millisecond):
	}
	frees[0]()
	rec = <-done
	if rec.Code != http.StatusOK {
		t.Fatalf("after a slot freed: status %d: %s", rec.Code, rec.Body)
	}
	var resp inferResponse
	if err := decodeBody(rec, &resp); err != nil || len(resp.Topics) != 2 {
		t.Fatalf("after a slot freed: %v, %d topic rows", err, len(resp.Topics))
	}
	// Only the answered request is timed and counted; the shed ones are not.
	var st statsResponse
	getJSON(t, s, "/v1/stats", &st)
	if st.LatencyUs.Count != 1 || st.DocsServed != 2 {
		t.Fatalf("latency count %d, docs served %d; want 1 and 2", st.LatencyUs.Count, st.DocsServed)
	}
}

// TestUnknownModelLeavesNoGate pins that admission resolves the model
// before it creates a gate: names are outside input, so requests for
// models that do not exist must answer 404 and leave no state behind.
func TestUnknownModelLeavesNoGate(t *testing.T) {
	const n = 20
	h, _ := testHandler(t)
	for i := 0; i < n; i++ {
		for _, tc := range []struct{ method, path, body string }{
			{"POST", fmt.Sprintf("/v1/models/nope%d/infer", i), `{"docs": [[0]]}`},
			{"GET", fmt.Sprintf("/v1/models/nope%d/query/topwords", i), ""},
			{"POST", fmt.Sprintf("/v1/models/nope%d/query/similar", i), `{"query": [0], "docs": [[1]]}`},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusNotFound {
				t.Fatalf("%s %s: status %d, want 404", tc.method, tc.path, rec.Code)
			}
		}
	}
	h.gateMu.Lock()
	defer h.gateMu.Unlock()
	if len(h.gates) != 0 {
		t.Fatalf("%d unknown names left %d gates", 3*n, len(h.gates))
	}
}

// TestPublishUnderLoadUsesWarmSnapshot drives steady traffic through a
// server while a new model version is published train-style
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
	s, err := NewServer(reg, ServeOptions{DefaultModel: "news"})
	if err != nil {
		t.Fatal(err)
	}
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
