package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warplda"
	"warplda/internal/registry"
)

// trainStressModel trains a small model with the given K so each
// swapped-in generation is observable by its response dimension.
func trainStressModel(t testing.TB, k int, seed uint64) *warplda.Model {
	t.Helper()
	c, err := warplda.GenerateLDA(warplda.SyntheticConfig{
		D: 40, V: 80, K: k, MeanLen: 25, Seed: seed,
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

// TestHotReloadUnderLoad is the serving-layer torture test: N
// goroutines hammer POST /v1/infer while the model file is atomically
// replaced several times under them. Every response must be a valid
// 200 from SOME complete model generation — never an error, never a
// torn hybrid — and the registry must register every swap. Run under
// -race (CI's short lane does) this also proves the snapshot-swap
// discipline is data-race-free.
func TestHotReloadUnderLoad(t *testing.T) {
	const (
		workers  = 8
		swaps    = 4
		firstK   = 2
		budgetMB = 64
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	saveModel(t, path, trainStressModel(t, firstK, 1))

	reg, err := registry.Open(dir, registry.Options{
		ReloadInterval: time.Millisecond,
		MaxBytes:       budgetMB << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sv, err := NewServer(reg, ServeOptions{DefaultModel: "live", Sweeps: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Load generation 0 before the hammering starts, so every later
	// write is a genuine hot swap of a resident model.
	if _, err := reg.Acquire("live"); err != nil {
		t.Fatal(err)
	}

	// Valid response dimensions: every generation's K. Generation g has
	// K = firstK + g.
	validK := map[int]bool{}
	for g := 0; g <= swaps; g++ {
		validK[firstK+g] = true
	}

	var (
		stop     atomic.Bool
		requests atomic.Int64
		failures atomic.Int64
		seenK    sync.Map // K -> true, which generations answered
	)
	body := `{"docs": [[0,1,2,3,4,5,6,7],[8,9,10,11]]}`
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
				rec := httptest.NewRecorder()
				sv.ServeHTTP(rec, req)
				requests.Add(1)
				if rec.Code != http.StatusOK {
					failures.Add(1)
					t.Errorf("request failed: %d %s", rec.Code, rec.Body)
					continue
				}
				var resp inferResponse
				if err := decodeBody(rec, &resp); err != nil {
					failures.Add(1)
					t.Errorf("bad response: %v", err)
					continue
				}
				k := len(resp.Topics[0])
				if !validK[k] {
					failures.Add(1)
					t.Errorf("response from unknown model generation: K=%d", k)
				}
				seenK.Store(k, true)
			}
		}()
	}

	// Swap the model under load, waiting for the registry to pick each
	// generation up before writing the next (so every swap happens with
	// requests in flight).
	for g := 1; g <= swaps; g++ {
		k := firstK + g
		saveModel(t, path, trainStressModel(t, k, uint64(g)*17))
		deadline := time.Now().Add(10 * time.Second)
		for {
			mi, ok := reg.Info("live")
			if ok && mi.Version >= g+1 {
				break
			}
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("swap %d not picked up (info %+v)", g, mi)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Let requests observe the final generation, then stop.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := requests.Load(); n < int64(workers*swaps) {
		t.Fatalf("only %d requests ran — not actually under load", n)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during hot swaps", n, requests.Load())
	}
	mi, _ := reg.Info("live")
	if mi.Loads < swaps+1 {
		t.Fatalf("only %d loads recorded, want ≥ %d", mi.Loads, swaps+1)
	}
	if st := reg.RegistryStats(); st.BytesResident > st.MaxBytes {
		t.Fatalf("resident %d bytes over budget %d", st.BytesResident, st.MaxBytes)
	}
	var generations int
	seenK.Range(func(_, _ any) bool { generations++; return true })
	if generations < 2 {
		t.Fatalf("requests only ever saw %d generation(s); swaps not exercised under load", generations)
	}
	t.Logf("served %d requests across %d model generations, %d swaps, 0 failures",
		requests.Load(), generations, mi.Loads-1)
}

// TestEvictionsObservableUnderLoad drives the registry past its byte
// budget through the HTTP plane and checks the acceptance invariant:
// resident bytes never exceed the budget and the evictions are visible
// via GET /v1/models.
func TestEvictionsObservableUnderLoad(t *testing.T) {
	m := trainStressModel(t, 2, 3)
	eng, err := warplda.NewInferEngine(m, warplda.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one := m.SizeBytes() + eng.MemoryBytes()

	models := map[string]*warplda.Model{}
	for i := 0; i < 4; i++ {
		models[fmt.Sprintf("m%d", i)] = trainStressModel(t, 2, uint64(40+i))
	}
	// Room for two resident models.
	h, reg := newTestServer(t, ServeOptions{Sweeps: 3},
		registry.Options{MaxBytes: one*2 + one/2}, models, "m0")

	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			rec, _ := postJSON(t, h, fmt.Sprintf("/v1/models/m%d/infer", i), `{"docs": [[0,1,2]]}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d m%d: status %d: %s", round, i, rec.Code, rec.Body)
			}
			if st := reg.RegistryStats(); st.BytesResident > st.MaxBytes {
				t.Fatalf("round %d m%d: resident %d over budget %d", round, i, st.BytesResident, st.MaxBytes)
			}
		}
	}

	var mr modelsResponse
	if rec := getJSON(t, h, "/v1/models", &mr); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/models: %d", rec.Code)
	}
	var evictions, ready int
	for _, mi := range mr.Models {
		evictions += mi.Evictions
		if mi.State == "ready" {
			ready++
		}
	}
	if evictions == 0 {
		t.Fatalf("no evictions visible in /models despite budget pressure: %+v", mr.Models)
	}
	if ready > 2 {
		t.Fatalf("%d models resident with a two-model budget", ready)
	}
	if mr.Evictions == 0 {
		t.Fatal("registry-wide eviction counter never moved")
	}
}

func decodeBody(rec *httptest.ResponseRecorder, v any) error {
	return json.NewDecoder(rec.Body).Decode(v)
}
