package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"warplda"
	"warplda/internal/corpus"
	"warplda/internal/registry"
)

// trainTestModel trains the two-domain toy model every handler test
// serves.
func trainTestModel(t testing.TB) *warplda.Model {
	t.Helper()
	docs := make([]string, 0, 40)
	for i := 0; i < 20; i++ {
		docs = append(docs, "gopher compiler runtime goroutine gopher compiler runtime")
		docs = append(docs, "stock market price bond stock market price")
	}
	c := warplda.FromText(docs, warplda.TokenizeOptions{})
	cfg := warplda.Defaults(2)
	cfg.Alpha = 0.2
	m, err := warplda.Train(c, cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// saveModel writes m to path atomically, the way warplda-train -save
// updates a live model directory.
func saveModel(t testing.TB, path string, m *warplda.Model) {
	t.Helper()
	if _, err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer saves the given models into a fresh registry directory
// and builds a Server over them, with the first name as default model.
func newTestServer(t testing.TB, opts ServeOptions, ropts registry.Options, models map[string]*warplda.Model, def string) (*Server, *registry.Registry) {
	t.Helper()
	dir := t.TempDir()
	for name, m := range models {
		saveModel(t, filepath.Join(dir, name+".bin"), m)
	}
	reg, err := registry.Open(dir, ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	opts.DefaultModel = def
	s, err := NewServer(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func testHandler(t testing.TB) (*Server, *warplda.Model) {
	t.Helper()
	m := trainTestModel(t)
	s, _ := newTestServer(t, ServeOptions{Sweeps: 30, MaxBatch: 8}, registry.Options{},
		map[string]*warplda.Model{"news": m}, "news")
	return s, m
}

func postJSON(t testing.TB, h http.Handler, path, body string) (*httptest.ResponseRecorder, inferResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp inferResponse
	if rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return rec, resp
}

func postInfer(t testing.TB, h http.Handler, body string) (*httptest.ResponseRecorder, inferResponse) {
	return postJSON(t, h, "/v1/infer", body)
}

func getJSON(t testing.TB, h http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if v != nil && rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return rec
}

func TestInferWithTokenIDs(t *testing.T) {
	h, m := testHandler(t)
	rec, resp := postInfer(t, h, `{"docs": [[0,1,2,0,1], [], [3,4,5,3]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if len(resp.Topics) != 3 || len(resp.Top) != 3 {
		t.Fatalf("got %d topic rows, %d top entries", len(resp.Topics), len(resp.Top))
	}
	if resp.Model != "news" || resp.Version != 1 {
		t.Fatalf("answered by %s v%d, want news v1", resp.Model, resp.Version)
	}
	for i, theta := range resp.Topics {
		if len(theta) != m.Cfg.K {
			t.Fatalf("doc %d: %d components, want K=%d", i, len(theta), m.Cfg.K)
		}
		var sum float64
		for _, p := range theta {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("doc %d: θ̂ sums to %g", i, sum)
		}
	}
	// Empty doc: uniform over K=2.
	if math.Abs(resp.Topics[1][0]-0.5) > 1e-12 {
		t.Fatalf("empty doc θ̂ = %v", resp.Topics[1])
	}
}

func TestInferByModelNameMatchesDefaultRoute(t *testing.T) {
	h, _ := testHandler(t)
	_, viaDefault := postInfer(t, h, `{"docs": [[0,1,2,3]]}`)
	rec, viaName := postJSON(t, h, "/v1/models/news/infer", `{"docs": [[0,1,2,3]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !reflect.DeepEqual(viaDefault.Topics, viaName.Topics) {
		t.Fatal("/v1/infer and /models/news/infer disagree on the same model")
	}
}

func TestInferWithTextsSeparatesDomains(t *testing.T) {
	h, _ := testHandler(t)
	rec, resp := postInfer(t, h,
		`{"texts": ["Gopher compiler, runtime!", "stock market price"], "sweeps": 40}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Top[0] == resp.Top[1] {
		t.Fatalf("tech and finance docs mapped to the same topic: %+v", resp)
	}
}

func TestInferDeterministicResponses(t *testing.T) {
	h, _ := testHandler(t)
	_, a := postInfer(t, h, `{"docs": [[0,1,2,3]]}`)
	_, b := postInfer(t, h, `{"docs": [[0,1,2,3]]}`)
	if !reflect.DeepEqual(a.Topics, b.Topics) {
		t.Fatal("identical requests got different answers")
	}
}

func TestInferRejectsBadRequests(t *testing.T) {
	h, _ := testHandler(t)
	cases := map[string]struct {
		path string
		body string
		code int
	}{
		"invalid json":      {"/v1/infer", `{"docs": [[0,`, http.StatusBadRequest},
		"unknown field":     {"/v1/infer", `{"documents": [[0]]}`, http.StatusBadRequest},
		"both docs+texts":   {"/v1/infer", `{"docs": [[0]], "texts": ["x"]}`, http.StatusBadRequest},
		"neither":           {"/v1/infer", `{}`, http.StatusBadRequest},
		"word out of range": {"/v1/infer", `{"docs": [[99999]]}`, http.StatusBadRequest},
		"over max batch":    {"/v1/infer", `{"docs": [[0],[0],[0],[0],[0],[0],[0],[0],[0]]}`, http.StatusRequestEntityTooLarge},
		"unknown model":     {"/v1/models/nope/infer", `{"docs": [[0]]}`, http.StatusNotFound},
		"traversal name":    {"/v1/models/..%2fnews/infer", `{"docs": [[0]]}`, http.StatusNotFound},
	}
	for name, tc := range cases {
		rec, _ := postJSON(t, h, tc.path, tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.code, rec.Body)
		}
	}
	// Wrong method: still on the JSON error contract, with Allow set.
	for path, allow := range map[string]string{
		"/v1/infer":             "POST",
		"/v1/models/news/infer": "POST",
		"/v1/models":            "GET",
		"/v1/models/news":       "GET",
		"/v1/healthz":           "GET",
	} {
		method := http.MethodGet
		if allow == "GET" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d", method, path, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != allow {
			t.Errorf("%s %s: Allow = %q, want %q", method, path, got, allow)
		}
		var e errorEnvelope
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil ||
			e.Error.Code != codeMethodNotAllowed || e.Error.Message == "" {
			t.Errorf("%s %s: 405 body not on the JSON error contract: %v %+v", method, path, err, e)
		}
	}
}

func TestHealthz(t *testing.T) {
	h, _ := testHandler(t)
	// Serve one batch first so the counter moves.
	postInfer(t, h, `{"docs": [[0,1],[2,3]]}`)

	var hr healthResponse
	rec := getJSON(t, h, "/v1/healthz", &hr)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if hr.Status != "ok" || hr.DefaultModel != "news" || hr.ModelsReady != 1 {
		t.Fatalf("health = %+v", hr)
	}
	if hr.DocsServed != 2 {
		t.Fatalf("docs_served = %d, want 2", hr.DocsServed)
	}
	if hr.BytesResident <= 0 {
		t.Fatalf("bytes_resident = %d", hr.BytesResident)
	}
}

func TestModelsAdminEndpoints(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{}, registry.Options{},
		map[string]*warplda.Model{"news": m, "cold": m}, "news")
	postInfer(t, h, `{"docs": [[0,1]]}`)

	var mr modelsResponse
	if rec := getJSON(t, h, "/v1/models", &mr); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/models: %d", rec.Code)
	}
	if len(mr.Models) != 2 {
		t.Fatalf("models = %+v", mr.Models)
	}
	byName := map[string]registry.ModelInfo{}
	for _, mi := range mr.Models {
		byName[mi.Name] = mi
	}
	if mi := byName["news"]; mi.State != "ready" || mi.K != 2 || mi.Bytes <= 0 || mi.Hits < 1 {
		t.Fatalf("news = %+v", mi)
	}
	if mi := byName["cold"]; mi.State != "available" || mi.Bytes != 0 {
		t.Fatalf("cold = %+v", mi)
	}
	if mr.BytesResident <= 0 || mr.Ready != 1 {
		t.Fatalf("registry stats = %+v", mr.Stats)
	}

	var mi registry.ModelInfo
	if rec := getJSON(t, h, "/v1/models/news", &mi); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/models/news: %d", rec.Code)
	}
	if mi.State != "ready" || mi.LoadMs <= 0 || mi.LoadedAt == "" {
		t.Fatalf("news info = %+v", mi)
	}
	if rec := getJSON(t, h, "/v1/models/nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/models/nope: %d", rec.Code)
	}
}

func TestDrainRefusesInferenceKeepsAdmin(t *testing.T) {
	h, _ := testHandler(t)
	h.Drain()
	if rec, _ := postInfer(t, h, `{"docs": [[0]]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /infer: status %d, want 503", rec.Code)
	}
	if rec, _ := postJSON(t, h, "/v1/models/news/infer", `{"docs": [[0]]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /models/news/infer: status %d, want 503", rec.Code)
	}
	var hr healthResponse
	if rec := getJSON(t, h, "/v1/healthz", &hr); rec.Code != http.StatusOK || hr.Status != "draining" {
		t.Fatalf("draining health: %d %+v", rec.Code, hr)
	}
	if rec := getJSON(t, h, "/v1/models", nil); rec.Code != http.StatusOK {
		t.Fatalf("draining /models: %d", rec.Code)
	}
}

func TestNoDefaultModel404sLegacyRoute(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{}, registry.Options{},
		map[string]*warplda.Model{"news": m}, "")
	if rec, _ := postInfer(t, h, `{"docs": [[0]]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("default route without a default model: %d, want 404", rec.Code)
	}
	if rec, _ := postJSON(t, h, "/v1/models/news/infer", `{"docs": [[0]]}`); rec.Code != http.StatusOK {
		t.Fatalf("named route: %d, want 200", rec.Code)
	}
}

func TestOverCapacityModelGets503(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{}, registry.Options{MaxBytes: 64},
		map[string]*warplda.Model{"news": m}, "news")
	rec, _ := postInfer(t, h, `{"docs": [[0]]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestTextNormalization(t *testing.T) {
	// The server shares corpus.Normalize with training-side FromText so
	// query words land on training vocabulary ids.
	got := corpus.Normalize("Hello, World! 2nd try—foo_bar")
	want := []string{"hello", "world", "2nd", "try", "foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
}

// Vocabularies loaded from external files (warplda-train -vocab) can
// hold entries corpus.Normalize would split, like UCI's underscored
// entities. The verbatim whitespace-field lookup must match them.
func TestTextsMatchExternalVocabEntities(t *testing.T) {
	cfg := warplda.Defaults(2)
	cfg.Alpha = 0.01 // sharp θ̂ so resolved vs dropped tokens are distinguishable
	m := &warplda.Model{
		Cfg:   cfg,
		V:     3,
		Vocab: []string{"zzz_new_york", "market", "gopher"},
		Cw:    []int32{50, 1, 1, 50, 5, 5}, // word 0 is decisively topic 0
		Ck:    []int64{56, 56},
	}
	h, _ := newTestServer(t, ServeOptions{Sweeps: 30}, registry.Options{},
		map[string]*warplda.Model{"uci": m}, "uci")
	rec, resp := postInfer(t, h,
		`{"texts": ["Zzz_New_York zzz_new_york ZZZ_NEW_YORK zzz_new_york"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if len(resp.Topics) != 1 {
		t.Fatalf("topics = %v", resp.Topics)
	}
	// If the entity resolved, four topic-0 tokens with α=0.01 force
	// θ̂₀ ≈ 1; if it was dropped as OOV the doc is empty and θ̂ is
	// exactly uniform (0.5).
	if resp.Topics[0][0] < 0.9 {
		t.Fatalf("entity token did not resolve; θ̂ = %v", resp.Topics[0])
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{MaxBodyBytes: 64}, registry.Options{},
		map[string]*warplda.Model{"news": m}, "news")
	rec, _ := postInfer(t, h, `{"docs": [[`+strings.Repeat("0,", 100)+`0]]}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", rec.Code, rec.Body)
	}
}
