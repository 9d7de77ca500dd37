package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"warplda"
	"warplda/internal/registry"
)

// decodeEnvelope asserts a response carries the uniform error envelope
// and returns it.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) apiError {
	t.Helper()
	var e errorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, rec.Body)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", e)
	}
	return e.Error
}

// TestV1ErrorEnvelope pins the /v1 error contract: every failing route
// answers with the same JSON envelope, a stable machine-readable code,
// the right status, and — on retryable 503s — a retry_after_ms that
// mirrors the Retry-After header.
func TestV1ErrorEnvelope(t *testing.T) {
	h, _ := testHandler(t)
	cases := map[string]struct {
		method, path, body string
		header             map[string]string
		status             int
		code               string
	}{
		"bad body":            {"POST", "/v1/infer", `{"docs": `, nil, 400, codeBadRequest},
		"unknown field":       {"POST", "/v1/infer", `{"nope": 1}`, nil, 400, codeBadRequest},
		"empty request":       {"POST", "/v1/infer", `{}`, nil, 400, codeBadRequest},
		"docs and texts":      {"POST", "/v1/infer", `{"docs":[[0]],"texts":["x"]}`, nil, 400, codeBadRequest},
		"word out of range":   {"POST", "/v1/infer", `{"docs": [[99999]]}`, nil, 400, codeBadRequest},
		"bad deadline":        {"POST", "/v1/infer", `{"docs": [[0]]}`, map[string]string{"X-Deadline-Ms": "abc"}, 400, codeBadRequest},
		"over max batch":      {"POST", "/v1/infer", `{"docs": [[0],[0],[0],[0],[0],[0],[0],[0],[0]]}`, nil, 413, codePayloadTooLarge},
		"unknown model":       {"POST", "/v1/models/nope/infer", `{"docs": [[0]]}`, nil, 404, codeNotFound},
		"unknown info":        {"GET", "/v1/models/nope", "", nil, 404, codeNotFound},
		"infer wrong method":  {"GET", "/v1/infer", "", nil, 405, codeMethodNotAllowed},
		"stats wrong method":  {"POST", "/v1/stats", "{}", nil, 405, codeMethodNotAllowed},
		"query wrong method":  {"POST", "/v1/models/news/query/topwords", "{}", nil, 405, codeMethodNotAllowed},
		"query bad kind":      {"GET", "/v1/models/news/query/bogus", "", nil, 404, codeNotFound},
		"query bad topic":     {"GET", "/v1/models/news/query/topwords?topic=99", "", nil, 400, codeBadRequest},
		"query bad cursor":    {"GET", "/v1/models/news/query/topwords?cursor=x", "", nil, 400, codeBadRequest},
		"query bad limit":     {"GET", "/v1/models/news/query/topwords?limit=-2", "", nil, 400, codeBadRequest},
		"query deep cursor":   {"GET", "/v1/models/news/query/topwords?cursor=999999", "", nil, 400, codeBadRequest},
		"drift no against":    {"GET", "/v1/models/news/query/drift", "", nil, 400, codeBadRequest},
		"drift bad against":   {"GET", "/v1/models/news/query/drift?against=nope", "", nil, 404, codeNotFound},
		"similar no query":    {"POST", "/v1/models/news/query/similar", `{"docs":[[0]]}`, nil, 400, codeBadRequest},
		"topdocs bad body":    {"POST", "/v1/models/news/query/topdocs", `{`, nil, 400, codeBadRequest},
		"query unknown model": {"GET", "/v1/models/nope/query/topwords", "", nil, 404, codeNotFound},
		"unknown v1 path":     {"GET", "/v1/bogus", "", nil, 404, codeNotFound},
		"unknown v1 subtree":  {"POST", "/v1/models/news/bogus", "{}", nil, 404, codeNotFound},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body)
			}
			e := decodeEnvelope(t, rec)
			if e.Code != tc.code {
				t.Fatalf("code %q, want %q (message %q)", e.Code, tc.code, e.Message)
			}
		})
	}
}

// TestV1RetryableEnvelope pins the retry metadata: a draining server
// sheds inference and query work with 503/"draining", and shed
// conditions that set Retry-After mirror it in retry_after_ms.
func TestV1RetryableEnvelope(t *testing.T) {
	h, _ := testHandler(t)
	h.Drain()
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/infer", `{"docs": [[0]]}`},
		{"POST", "/v1/models/news/infer", `{"docs": [[0]]}`},
		{"GET", "/v1/models/news/query/topwords", ""},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d, want 503", tc.method, tc.path, rec.Code)
		}
		if e := decodeEnvelope(t, rec); e.Code != codeDraining {
			t.Fatalf("%s %s: code %q, want %q", tc.method, tc.path, e.Code, codeDraining)
		}
	}
}

// TestRetryAfterMirrorsHeader drives a deterministic retryable 503 — a
// registry whose byte budget cannot fit the model — and checks the
// envelope's retry_after_ms agrees with the Retry-After header on both
// the infer and query surfaces.
func TestRetryAfterMirrorsHeader(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{}, registry.Options{MaxBytes: 1},
		map[string]*warplda.Model{"news": m}, "news")
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/infer", `{"docs": [[0]]}`},
		{"GET", "/v1/models/news/query/topwords", ""},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d, want 503 (%s)", tc.method, tc.path, rec.Code, rec.Body)
		}
		e := decodeEnvelope(t, rec)
		if e.Code != codeOverCapacity {
			t.Fatalf("%s %s: code %q, want %q", tc.method, tc.path, e.Code, codeOverCapacity)
		}
		if e.RetryAfterMs <= 0 {
			t.Fatalf("%s %s: retry_after_ms = %d", tc.method, tc.path, e.RetryAfterMs)
		}
		hdr, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || int64(hdr)*1000 < e.RetryAfterMs {
			t.Fatalf("%s %s: Retry-After %q does not cover retry_after_ms %d",
				tc.method, tc.path, rec.Header().Get("Retry-After"), e.RetryAfterMs)
		}
	}
}

// TestUnversionedPathsNotFound pins that the pre-/v1 paths are gone,
// not half-served: a client still calling them gets a 404 on the JSON
// error contract, naming the path, instead of ServeMux's plain text.
func TestUnversionedPathsNotFound(t *testing.T) {
	h, _ := testHandler(t)
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"POST", "/infer", `{"docs": [[0]]}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", tc.method, tc.path, rec.Code)
		}
		if e := decodeEnvelope(t, rec); e.Code != codeNotFound || !strings.Contains(e.Message, tc.path) {
			t.Fatalf("%s %s: envelope %+v, want code %q naming the path", tc.method, tc.path, e, codeNotFound)
		}
	}
}
