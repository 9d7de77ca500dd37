package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"warplda"
	"warplda/internal/query"
	"warplda/internal/registry"
)

// queryPage decodes one streamed query response.
type queryPage struct {
	Model      string          `json:"model"`
	Version    int             `json:"version"`
	Against    string          `json:"against"`
	Rows       json.RawMessage `json:"rows"`
	RowCount   int             `json:"row_count"`
	Truncated  bool            `json:"truncated"`
	NextCursor string          `json:"next_cursor"`
	Error      string          `json:"error"`
	TookMs     float64         `json:"took_ms"`
}

func doQuery(t testing.TB, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, queryPage) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var page queryPage
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("%s: response is not one JSON object: %v\n%s", path, err, rec.Body)
		}
	}
	return rec, page
}

func rowsOf[T any](t testing.TB, page queryPage) []T {
	t.Helper()
	var rows []T
	if err := json.Unmarshal(page.Rows, &rows); err != nil {
		t.Fatalf("decoding rows: %v\n%s", err, page.Rows)
	}
	if len(rows) != page.RowCount {
		t.Fatalf("row_count %d but %d rows decoded", page.RowCount, len(rows))
	}
	return rows
}

func TestQueryTopWordsPagination(t *testing.T) {
	h, _ := testHandler(t)
	// Deep query: the full ranking for topic 0.
	rec, full := doQuery(t, h, "GET", "/v1/models/news/query/topwords?topic=0&limit=100", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if full.Model != "news" || full.Version != 1 {
		t.Fatalf("page header = %+v", full)
	}
	fullRows := rowsOf[query.WordRow](t, full)
	// The toy corpus has two 4-word domains; topic 0 holds at least its
	// own domain's words.
	if len(fullRows) < 4 {
		t.Fatalf("topic 0 has only %d ranked words", len(fullRows))
	}
	if full.Truncated {
		t.Fatalf("deep query truncated: %+v", full)
	}
	for i := 1; i < len(fullRows); i++ {
		if fullRows[i].Count > fullRows[i-1].Count {
			t.Fatalf("ranking not descending at %d: %+v", i, fullRows)
		}
	}

	// Page through with limit=2 and splice: identical to the deep query.
	var paged []query.WordRow
	cursor := ""
	for hops := 0; ; hops++ {
		if hops > 20 {
			t.Fatal("pagination did not terminate")
		}
		rec, page := doQuery(t, h, "GET", "/v1/models/news/query/topwords?topic=0&limit=2&cursor="+cursor, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: status %d: %s", hops, rec.Code, rec.Body)
		}
		paged = append(paged, rowsOf[query.WordRow](t, page)...)
		if !page.Truncated {
			break
		}
		if page.NextCursor == "" {
			t.Fatalf("truncated page without next_cursor: %+v", page)
		}
		cursor = page.NextCursor
	}
	if len(paged) != len(fullRows) {
		t.Fatalf("paged %d rows, deep query %d", len(paged), len(fullRows))
	}
	for i := range fullRows {
		if paged[i] != fullRows[i] {
			t.Fatalf("row %d: paged %+v != deep %+v", i, paged[i], fullRows[i])
		}
	}

	// Cursor past the end: empty page, not truncated, not an error.
	rec, past := doQuery(t, h, "GET", "/v1/models/news/query/topwords?topic=0&cursor=500", "")
	if rec.Code != http.StatusOK || past.RowCount != 0 || past.Truncated {
		t.Fatalf("past-end page: status %d, %+v", rec.Code, past)
	}

	// limit=0 falls back to the default page size.
	rec, def := doQuery(t, h, "GET", "/v1/models/news/query/topwords?topic=0&limit=0", "")
	if rec.Code != http.StatusOK || def.RowCount == 0 {
		t.Fatalf("limit=0 page: status %d, %+v", rec.Code, def)
	}
}

func TestQueryVocab(t *testing.T) {
	h, _ := testHandler(t)
	rec, page := doQuery(t, h, "GET", "/v1/models/news/query/vocab?prefix=sto", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	rows := rowsOf[query.VocabRow](t, page)
	if len(rows) != 1 || rows[0].Word != "stock" || rows[0].Tokens == 0 {
		t.Fatalf("rows = %+v", rows)
	}
	// Prefix with no matches: empty page, valid JSON, no error.
	rec, page = doQuery(t, h, "GET", "/v1/models/news/query/vocab?prefix=zzz", "")
	if rec.Code != http.StatusOK || page.RowCount != 0 || page.Truncated || page.Error != "" {
		t.Fatalf("empty slice: status %d, %+v", rec.Code, page)
	}
}

func TestQuerySimilarAndTopDocs(t *testing.T) {
	h, _ := testHandler(t)
	body := `{
		"query_text": "stock market bond price stock",
		"texts": [
			"gopher compiler runtime goroutine gopher compiler",
			"stock market price bond stock market",
			"gopher compiler stock market"
		]
	}`
	rec, page := doQuery(t, h, "POST", "/v1/models/news/query/similar", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("similar: status %d: %s", rec.Code, rec.Body)
	}
	simRows := rowsOf[query.SimRow](t, page)
	if len(simRows) != 3 {
		t.Fatalf("similar rows = %+v", simRows)
	}
	if simRows[0].Doc != 1 {
		t.Fatalf("best match doc %d, want the all-finance doc 1: %+v", simRows[0].Doc, simRows)
	}

	// topdocs for the finance topic must rank the finance doc first.
	// Find that topic via the query's own top answer.
	financeTopic := topicOfText(t, h, "stock market price bond")
	tdBody := `{
		"topic": ` + jsonInt(financeTopic) + `,
		"texts": [
			"gopher compiler runtime goroutine",
			"stock market price bond stock market price"
		]
	}`
	rec, page = doQuery(t, h, "POST", "/v1/models/news/query/topdocs", tdBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("topdocs: status %d: %s", rec.Code, rec.Body)
	}
	docRows := rowsOf[query.DocRow](t, page)
	if len(docRows) != 2 || docRows[0].Doc != 1 {
		t.Fatalf("topdocs rows = %+v, want doc 1 first", docRows)
	}
	if docRows[0].Weight <= docRows[1].Weight {
		t.Fatalf("weights not descending: %+v", docRows)
	}

	// Determinism: the same similar request answers identically.
	rec2, page2 := doQuery(t, h, "POST", "/v1/models/news/query/similar", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat similar: status %d", rec2.Code)
	}
	sim2 := rowsOf[query.SimRow](t, page2)
	for i := range simRows {
		if simRows[i] != sim2[i] {
			t.Fatalf("similar not deterministic: %+v vs %+v", simRows[i], sim2[i])
		}
	}
}

// topicOfText asks the infer endpoint which topic dominates a text.
func topicOfText(t testing.TB, h http.Handler, text string) int {
	t.Helper()
	rec, resp := postJSON(t, h, "/v1/infer", `{"texts": ["`+text+`"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("infer probe: status %d: %s", rec.Code, rec.Body)
	}
	return resp.Top[0]
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestQueryDrift(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{}, registry.Options{},
		map[string]*warplda.Model{"news": m, "prev": trainTestModel(t)}, "news")

	// A model against itself: zero distance, full overlap, one row per
	// topic.
	rec, page := doQuery(t, h, "GET", "/v1/models/news/query/drift?against=news&top=4", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if page.Against != "news" {
		t.Fatalf("page = %+v", page)
	}
	rows := rowsOf[query.DriftRow](t, page)
	if len(rows) != m.Cfg.K {
		t.Fatalf("%d rows, want K=%d", len(rows), m.Cfg.K)
	}
	for _, row := range rows {
		if row.L1 != 0 || row.Overlap != 1 {
			t.Fatalf("self-drift row = %+v", row)
		}
		if len(row.TopA) == 0 || len(row.TopA) != len(row.TopB) {
			t.Fatalf("top sets = %+v", row)
		}
	}

	// Against an independently trained sibling: finite, well-formed rows.
	rec, page = doQuery(t, h, "GET", "/v1/models/news/query/drift?against=prev", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	for _, row := range rowsOf[query.DriftRow](t, page) {
		if row.L1 < 0 || row.Overlap < 0 || row.Overlap > 1 {
			t.Fatalf("drift row out of range: %+v", row)
		}
	}
}

// TestQueryByteBudget pins the byte half of the streaming budget: a
// tiny QueryMaxBytes cuts the page short mid-ranking with a usable
// next_cursor, and the truncated body is still one valid JSON object.
func TestQueryByteBudget(t *testing.T) {
	m := trainTestModel(t)
	h, _ := newTestServer(t, ServeOptions{QueryMaxBytes: 150}, registry.Options{},
		map[string]*warplda.Model{"news": m}, "news")
	rec, page := doQuery(t, h, "GET", "/v1/models/news/query/topwords?topic=0&limit=100", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !page.Truncated || page.NextCursor == "" {
		t.Fatalf("tiny byte budget did not truncate: %+v", page)
	}
	first := rowsOf[query.WordRow](t, page)
	if len(first) == 0 {
		t.Fatal("byte budget admitted zero rows")
	}
	// The cursor resumes exactly after the delivered rows.
	rec, next := doQuery(t, h, "GET",
		"/v1/models/news/query/topwords?topic=0&limit=100&cursor="+page.NextCursor, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("resume: status %d: %s", rec.Code, rec.Body)
	}
	nextRows := rowsOf[query.WordRow](t, next)
	if len(nextRows) == 0 {
		t.Fatalf("resume page empty: %+v", next)
	}
	if nextRows[0].Count > first[len(first)-1].Count {
		t.Fatalf("resume page does not continue the ranking: %+v after %+v", nextRows[0], first[len(first)-1])
	}
}

// TestQueryStatsAndGate pins the observability wiring: queries count
// into queries_served, the latency histogram moves, and the per-model
// gate reports admissions.
func TestQueryStatsAndGate(t *testing.T) {
	h, _ := testHandler(t)
	for i := 0; i < 3; i++ {
		if rec, _ := doQuery(t, h, "GET", "/v1/models/news/query/topwords?topic=0&limit=2", ""); rec.Code != 200 {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	var st statsResponse
	rec := getJSON(t, h, "/v1/stats", &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	if st.QueriesServed != 3 {
		t.Fatalf("queries_served = %d, want 3", st.QueriesServed)
	}
	if st.QueryLatencyUs.Count != 3 {
		t.Fatalf("query latency count = %d, want 3", st.QueryLatencyUs.Count)
	}
	g, ok := st.Gates["news"]
	if !ok || g.Admitted != 3 || g.Active != 0 {
		t.Fatalf("gates = %+v", st.Gates)
	}
}

// TestQueryVersionPinning serves a versioned name directly: the drift
// pair (base, base@iter) answers from two distinct pinned snapshots.
func TestQueryVersionPinning(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	saveModel(t, filepath.Join(dir, "news.bin"), m)
	saveModel(t, filepath.Join(dir, "news@7.bin"), trainTestModel(t))
	reg, err := registry.Open(dir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	s, err := NewServer(reg, ServeOptions{DefaultModel: "news"})
	if err != nil {
		t.Fatal(err)
	}

	rec, page := doQuery(t, s, "GET", "/v1/models/news/query/drift?against=news@7", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if page.Against != "news@7" {
		t.Fatalf("page = %+v", page)
	}
	if len(rowsOf[query.DriftRow](t, page)) != m.Cfg.K {
		t.Fatalf("row_count = %d", page.RowCount)
	}

	// The versioned sibling also shows up on the model info route.
	var mi registry.ModelInfo
	if rec := getJSON(t, s, "/v1/models/news", &mi); rec.Code != http.StatusOK {
		t.Fatalf("info: status %d", rec.Code)
	}
	if len(mi.Versions) != 1 || mi.Versions[0].Name != "news@7" || mi.Versions[0].Iter != 7 {
		t.Fatalf("versions = %+v", mi.Versions)
	}
}
