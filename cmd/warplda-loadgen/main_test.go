package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"warplda/internal/hist"
)

func TestParseDocMix(t *testing.T) {
	mix, err := parseDocMix("128:0.3, 16:0.7")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].length != 16 || mix[1].length != 128 {
		t.Fatalf("mix = %+v", mix)
	}
	if math.Abs(mix[0].weight-0.7) > 1e-12 || math.Abs(mix[1].weight-0.3) > 1e-12 {
		t.Fatalf("weights = %+v", mix)
	}

	// Bare lengths weight equally; weights renormalize.
	mix, err = parseDocMix("8,32")
	if err != nil {
		t.Fatal(err)
	}
	if mix[0].weight != 0.5 || mix[1].weight != 0.5 {
		t.Fatalf("mix = %+v", mix)
	}

	for _, bad := range []string{"", "x:1", "16:-1", "0:1", "16:zero"} {
		if _, err := parseDocMix(bad); err == nil {
			t.Errorf("parseDocMix(%q) accepted", bad)
		}
	}
}

func TestSampleLenFollowsMix(t *testing.T) {
	mix, err := parseDocMix("16:0.75,128:0.25")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	short := 0
	const n = 20000
	for i := 0; i < n; i++ {
		switch sampleLen(mix, r) {
		case 16:
			short++
		case 128:
		default:
			t.Fatal("sampled a length not in the mix")
		}
	}
	if frac := float64(short) / n; frac < 0.72 || frac > 0.78 {
		t.Fatalf("short fraction %.3f, want ~0.75", frac)
	}
}

// report builds a Report with the given P99 (µs) and throughput.
func report(p99 int64, rps float64) *Report {
	return &Report{
		OK: 100, ThroughputRPS: rps,
		LatencyUs: hist.Snapshot{Count: 100, P99: p99},
	}
}

func TestGateBudgets(t *testing.T) {
	rep := report(150_000, 80) // P99 150ms, 80 req/s
	rep.Errors = 3
	off := budgets{maxErrors: -1}

	if v := gate(rep, off); len(v) != 0 {
		t.Fatalf("no budgets given, got %v", v)
	}
	if v := gate(rep, budgets{p99: 200 * time.Millisecond, minThroughput: 50, maxErrors: 3}); len(v) != 0 {
		t.Fatalf("within budget, got %v", v)
	}
	if v := gate(rep, budgets{p99: 100 * time.Millisecond, maxErrors: -1}); len(v) != 1 {
		t.Fatalf("P99 over budget not caught: %v", v)
	}
	if v := gate(rep, budgets{minThroughput: 100, maxErrors: -1}); len(v) != 1 {
		t.Fatalf("throughput under floor not caught: %v", v)
	}
	if v := gate(rep, budgets{maxErrors: 2}); len(v) != 1 {
		t.Fatalf("errors over budget not caught: %v", v)
	}
	if v := gate(&Report{Shed: 9}, off); len(v) != 1 {
		t.Fatalf("zero-OK report not flagged: %v", v)
	}
}

// A budget that is given fails the run on any machine: the exit code
// is a function of the report and the budgets alone, so a report from
// a one-CPU box is held to them like any other.
func TestVerdictFailsOnSmallMachine(t *testing.T) {
	rep := report(150_000, 80)
	rep.CPUs = 1
	var out strings.Builder
	if code := verdict(&out, rep, budgets{p99: 100 * time.Millisecond, maxErrors: -1}); code != 1 {
		t.Fatalf("P99 over budget on a 1-CPU report: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "P99 150.0ms over budget 100.0ms") {
		t.Fatalf("violation not reported:\n%s", out.String())
	}
	out.Reset()
	if code := verdict(&out, rep, budgets{p99: 200 * time.Millisecond, maxErrors: 0}); code != 0 {
		t.Fatalf("within budget: exit %d, want 0\n%s", code, out.String())
	}
}

// fakeServe emulates the warplda-serve surface loadgen touches: POST
// inference (with an optional slow/shed script) and GET /models/{name}.
func fakeServe(t *testing.T, vocab int, handler func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	infer := func(w http.ResponseWriter, r *http.Request) {
		if handler != nil && !handler(w, r) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"model":"news","version":1,"topics":[[0.9,0.1]],"top":[0],"took_ms":0.1}`))
	}
	mux.HandleFunc("POST /infer", infer)
	mux.HandleFunc("POST /models/{name}/infer", infer)
	mux.HandleFunc("GET /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"name": r.PathValue("name"), "state": "ready", "v": vocab, "k": 4})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func testConfig(srv *httptest.Server, mode string) *config {
	mix, _ := parseDocMix("4:1")
	return &config{
		url:         srv.URL + "/models/news/infer",
		statsURL:    srv.URL,
		model:       "news",
		mode:        mode,
		concurrency: 2,
		duration:    150 * time.Millisecond,
		mix:         mix,
		mixSpec:     "4:1",
		seed:        1,
		client:      srv.Client(),
	}
}

func TestRunClosedLoopSmoke(t *testing.T) {
	var sawDocs atomic.Bool
	srv := fakeServe(t, 50, func(w http.ResponseWriter, r *http.Request) bool {
		var req struct {
			Docs [][]int32 `json:"docs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err == nil &&
			len(req.Docs) == 1 && len(req.Docs[0]) == 4 {
			ok := true
			for _, id := range req.Docs[0] {
				ok = ok && id >= 0 && id < 50
			}
			if ok {
				sawDocs.Store(true)
			}
		}
		return true
	})
	cfg := testConfig(srv, "closed")
	cfg.vocab = 0 // exercise discovery against GET /models/news
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.vocab != 50 {
		t.Fatalf("discovered vocab = %d, want 50", cfg.vocab)
	}
	if rep.OK == 0 || rep.Requests != rep.OK+rep.Shed+rep.Errors {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LatencyUs.Count != rep.OK || rep.LatencyUs.P99 <= 0 {
		t.Fatalf("latency histogram = %+v, ok = %d", rep.LatencyUs, rep.OK)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", rep.ThroughputRPS)
	}
	if !sawDocs.Load() {
		t.Fatal("server never saw a well-formed single-document request")
	}
}

func TestRunOpenLoopCountsShed(t *testing.T) {
	var reqs atomic.Int64
	srv := fakeServe(t, 50, func(w http.ResponseWriter, r *http.Request) bool {
		if reqs.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"queue full"}`))
			return false
		}
		return true
	})
	cfg := testConfig(srv, "open")
	cfg.vocab = 50
	cfg.rate = 200
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.Shed == 0 {
		t.Fatalf("want both successes and shed requests, got %+v", rep)
	}
	// Shed requests must not pollute the latency quantiles.
	if rep.LatencyUs.Count != rep.OK {
		t.Fatalf("histogram count %d != ok %d", rep.LatencyUs.Count, rep.OK)
	}
}

// TestRunQueryWorkload drives -workload query against a fake /v1 query
// surface and checks the mix exercises all three request kinds with
// well-formed parameters, plus topic-count discovery.
func TestRunQueryWorkload(t *testing.T) {
	var topwords, similar, vocabQ, malformed atomic.Int64
	mux := http.NewServeMux()
	page := []byte(`{"model":"news","version":1,"rows":[],"row_count":0,"truncated":false,"took_ms":0.1}`)
	mux.HandleFunc("GET /v1/models/news/query/topwords", func(w http.ResponseWriter, r *http.Request) {
		topic, err := strconv.Atoi(r.URL.Query().Get("topic"))
		if err != nil || topic < 0 || topic >= 4 || r.URL.Query().Get("limit") != "20" {
			malformed.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		topwords.Add(1)
		w.Write(page)
	})
	mux.HandleFunc("POST /v1/models/news/query/similar", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query []int32   `json:"query"`
			Docs  [][]int32 `json:"docs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil ||
			len(req.Query) == 0 || len(req.Docs) < 4 || len(req.Docs) > 8 {
			malformed.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		similar.Add(1)
		w.Write(page)
	})
	mux.HandleFunc("GET /v1/models/news/query/vocab", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("prefix") == "" {
			malformed.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		vocabQ.Add(1)
		w.Write(page)
	})
	mux.HandleFunc("POST /models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"model":"news","version":1,"topics":[[1]],"top":[0],"took_ms":0.1}`))
	})
	mux.HandleFunc("GET /models/{name}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"name": "news", "state": "ready", "v": 50, "k": 4})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	cfg := testConfig(srv, "closed")
	cfg.workload = "query"
	cfg.vocab = 0 // discovery must fill both V and K
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.vocab != 50 || cfg.topics != 4 {
		t.Fatalf("discovered (V, K) = (%d, %d), want (50, 4)", cfg.vocab, cfg.topics)
	}
	if n := malformed.Load(); n != 0 {
		t.Fatalf("%d malformed query requests", n)
	}
	if topwords.Load() == 0 || similar.Load() == 0 || vocabQ.Load() == 0 {
		t.Fatalf("mix did not hit every kind: topwords=%d similar=%d vocab=%d",
			topwords.Load(), similar.Load(), vocabQ.Load())
	}
	if rep.Workload != "query" || rep.Errors != 0 || rep.OK == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	srv := fakeServe(t, 50, nil)
	cfg := testConfig(srv, "spiral")
	cfg.vocab = 50
	if _, err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("err = %v", err)
	}
}
