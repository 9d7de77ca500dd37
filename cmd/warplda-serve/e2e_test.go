package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warplda"
	"warplda/internal/registry"
)

// TestEndToEndTrainSaveServePipeline covers the whole production path
// as one flow: train a tiny model, save it the way warplda-train -save
// does, boot the HTTP server over the model directory, query it over
// real HTTP through both routes, and pin the responses to the golden
// answer computed directly on the reloaded snapshot. JSON float64
// round-trips losslessly (shortest-representation encoding), so the
// comparison is exact, not approximate — any drift anywhere in
// train→disk→load→engine→HTTP is a failure.
func TestEndToEndTrainSaveServePipeline(t *testing.T) {
	// 1. Train.
	m := trainTestModel(t)

	// 2. Save, exactly as warplda-train -save does (Model.WriteTo).
	dir := t.TempDir()
	path := filepath.Join(dir, "news.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// 3. Boot the server over the model directory.
	reg, err := registry.Open(dir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	opts := ServeOptions{DefaultModel: "news", Sweeps: 25}
	sv, err := NewServer(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	defer ts.Close()

	// 4. Golden answer: fold the same docs in directly on a model read
	// back from the same file, with the server's effective parameters.
	queryDocs := [][]int32{{0, 1, 2, 0, 1}, {3, 4, 5, 3}}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := warplda.ReadModel(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := warplda.NewInferEngine(reloaded, warplda.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := eng.InferBatch(queryDocs, opts.Sweeps, opts.withDefaults().Seed)
	if err != nil {
		t.Fatal(err)
	}

	// 5. Query over real HTTP: default route and per-model route must
	// both return exactly the golden distributions.
	body := `{"docs": [[0,1,2,0,1],[3,4,5,3]]}`
	for _, route := range []string{"/v1/infer", "/v1/models/news/infer"} {
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var ir inferResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", route, resp.StatusCode)
		}
		if !reflect.DeepEqual(ir.Topics, golden) {
			t.Fatalf("%s diverged from golden fold-in:\n got %v\nwant %v", route, ir.Topics, golden)
		}
		if ir.Model != "news" || ir.Version != 1 {
			t.Fatalf("%s answered by %s v%d", route, ir.Model, ir.Version)
		}
	}

	// 6. The admin plane saw all of it.
	resp, err := http.Get(ts.URL + "/v1/models/news")
	if err != nil {
		t.Fatal(err)
	}
	var mi registry.ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&mi)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mi.State != "ready" || mi.Hits != 2 || mi.K != m.Cfg.K || mi.V != m.V {
		t.Fatalf("admin info = %+v", mi)
	}
}

// TestEndToEndGoldenStability pins the pipeline's determinism across
// server instances: two independent boots over the same file must
// answer byte-identically (the serving contract that makes blue/green
// deploys and response caching safe).
func TestEndToEndGoldenStability(t *testing.T) {
	m := trainTestModel(t)
	answers := make([]inferResponse, 2)
	for i := range answers {
		h, _ := newTestServer(t, ServeOptions{Sweeps: 25}, registry.Options{},
			map[string]*warplda.Model{"news": m}, "news")
		rec, resp := postInfer(t, h, `{"texts": ["gopher compiler runtime", "stock market price"]}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("boot %d: status %d: %s", i, rec.Code, rec.Body)
		}
		answers[i] = resp
	}
	if !reflect.DeepEqual(answers[0].Topics, answers[1].Topics) ||
		!reflect.DeepEqual(answers[0].Top, answers[1].Top) {
		t.Fatalf("two boots over the same model file disagree:\n%+v\n%+v", answers[0], answers[1])
	}
}
