package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"warplda"
	"warplda/internal/corpus"
	"warplda/internal/registry"
)

// encodeReply is what the infer reply was before it was written by
// hand, and stays the reference for its bytes.
func encodeReply(t testing.TB, r inferResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReply appends r behind a prefix, so the memo's offsets are
// tested relative to a buffer that does not start at the reply, and
// requires encoding/json's bytes.
func checkReply(t testing.TB, m *floatMemo, what string, r inferResponse) {
	t.Helper()
	const prefix = "prefix bytes "
	got := appendInferReply([]byte(prefix), m, &r)
	want := encodeReply(t, r)
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got[len(prefix):], want)
	}
}

// thetaRows draws n rows the way the engine computes them:
// θ_t = (c_dt + α)/(L_d + ᾱ) with L_d tokens spread over k topics.
func thetaRows(rnd *rand.Rand, n, k, ld int) [][]float64 {
	alpha := 50 / float64(k)
	rows := make([][]float64, n)
	counts := make([]int, k)
	for i := range rows {
		clear(counts)
		for j := 0; j < ld; j++ {
			counts[rnd.Intn(k)]++
		}
		rows[i] = make([]float64, k)
		for t := range rows[i] {
			rows[i][t] = (float64(counts[t]) + alpha) / (float64(ld) + alpha*float64(k))
		}
	}
	return rows
}

// argmax is the top row the handler sends beside rows.
func argmax(rows [][]float64) []int {
	top := make([]int, len(rows))
	for i, row := range rows {
		for k, p := range row {
			if p > row[top[i]] {
				top[i] = k
			}
		}
	}
	return top
}

func TestInferReplyMatchesEncodingJSON(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var m floatMemo // shared across cases, as a pooled one is
	reply := func(rows [][]float64) inferResponse {
		return inferResponse{Model: "news", Version: 3, Topics: rows, Top: argmax(rows), TookMs: 0.017}
	}
	for _, k := range []int{1, 2, 256, 300} {
		for _, docs := range []int{1, 16} {
			for _, ld := range []int{0, 1, 16, 128, 512} {
				rows := thetaRows(rnd, docs, k, ld)
				checkReply(t, &m, fmt.Sprintf("K=%d docs=%d L_d=%d", k, docs, ld), reply(rows))
			}
		}
	}

	// More distinct values than the memo takes, then repeats of values
	// it took and of values it did not.
	wide := make([]float64, 3*memoSlots)
	for i := range wide[:2*memoSlots] {
		wide[i] = rnd.Float64() / float64(1+i%7)
	}
	for i := range wide[2*memoSlots:] {
		wide[2*memoSlots+i] = wide[rnd.Intn(2*memoSlots)]
	}
	checkReply(t, &m, "more distinct values than the memo holds", reply([][]float64{wide, wide[:memoFill+1]}))

	// Values encoding/json writes with an exponent, both ends of the
	// 'f' range, and both zeros.
	edges := []float64{
		1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.5e-10, 1e-100,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1e20, 1e21, 1.5e21, -1e21, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3,
	}
	checkReply(t, &m, "exponent forms and signed zeros", reply([][]float64{edges, edges[:3]}))
	for _, f := range edges {
		r := reply([][]float64{{f}})
		r.TookMs = f
		checkReply(t, &m, fmt.Sprintf("value %g", f), r)
	}

	// The reply frame: versions, took_ms, empty, nil and zero-length
	// rows, and every character a registry name may hold.
	rows := thetaRows(rnd, 2, 4, 3)
	for _, r := range []inferResponse{
		{Model: "news", Version: 0, Topics: rows, Top: argmax(rows), TookMs: 0},
		{Model: "news", Version: math.MaxInt, Topics: rows, Top: argmax(rows), TookMs: 1234.567},
		{Model: "news", Version: -1, Topics: [][]float64{}, Top: []int{}},
		{Model: "news", Version: 1, Topics: [][]float64{nil, {}}, Top: []int{0, 0}},
		{Model: "news"},
		{Model: "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789.@_-", Version: 7, Topics: rows, Top: argmax(rows)},
	} {
		checkReply(t, &m, fmt.Sprintf("frame %+v", r), r)
	}
	checkNamesNeedNoEscape(t)

	// Through the handler, a reply to zero documents keeps its empty,
	// not null, rows.
	h, _ := testHandler(t)
	const zero = `{"model":"news","version":1,"topics":[],"top":[],"took_ms":`
	if body := doInfer(h, `{"docs": []}`).Body.String(); !strings.HasPrefix(body, zero) {
		t.Fatalf("zero-document reply %s, want it to start %s", body, zero)
	}
}

// checkNamesNeedNoEscape pins why the appender may copy the model name
// verbatim: every name the registry does not refuse as malformed
// marshals to itself in quotes.
func checkNamesNeedNoEscape(t *testing.T) {
	reg, err := registry.Open(t.TempDir(), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	admitted := 0
	for b := 0; b < 256; b++ {
		for _, name := range []string{string([]byte{byte(b)}), "a" + string([]byte{byte(b)})} {
			if _, err := reg.Acquire(name); errors.Is(err, registry.ErrBadName) {
				continue
			}
			admitted++
			if got, _ := json.Marshal(name); string(got) != `"`+name+`"` {
				t.Errorf("registry admits %q, which encoding/json writes as %s", name, got)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("the registry admitted no name at all")
	}
}

// FuzzInferReply checks byte equality with encoding/json over arbitrary
// finite rows. Each control byte either repeats an earlier value of the
// row, or its neighbouring float, so the memo's copy path runs, or reads
// the next eight bytes as a float64.
func FuzzInferReply(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []float64{0.1, 1e-7, 1e21, math.Copysign(0, -1), math.SmallestNonzeroFloat64} {
		seed = append(seed, 1)
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		seed = append(seed, 0)
	}
	f.Add(seed, uint8(3), int64(1), 0.25)
	f.Add([]byte{}, uint8(0), int64(0), 0.0)
	var m floatMemo
	f.Fuzz(func(t *testing.T, data []byte, width uint8, version int64, took float64) {
		if math.IsInf(took, 0) || math.IsNaN(took) {
			return
		}
		var rows [][]float64
		var row []float64
		for len(data) > 0 {
			c := data[0]
			data = data[1:]
			switch {
			case c&1 == 0 && len(row) > 0:
				v := row[int(c>>2)%len(row)]
				if c&2 != 0 {
					v = math.Nextafter(v, 1)
				}
				row = append(row, v)
			case len(data) >= 8:
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				if math.IsInf(v, 0) || math.IsNaN(v) {
					continue
				}
				row = append(row, v)
			default:
				data = nil
			}
			if len(row) > int(width) {
				rows = append(rows, row)
				row = nil
			}
		}
		rows = append(rows, row)
		checkReply(t, &m, "fuzzed reply", inferResponse{
			Model: "news", Version: int(version), Topics: rows, Top: argmax(rows), TookMs: took,
		})
	})
}

// handlerAllocCeiling is the allocations of one 16-token infer through
// Server.ServeHTTP, httptest's request and recorder included (11 of
// them); the reply adds none. encoding/json's reply made it 43. A -race
// build reads more, since its sync.Pool drops a quarter of its puts:
// 43–44 here (the ceiling leaves two for the random drops), against
// 51–52 with encoding/json.
const (
	handlerAllocCeiling     = 41
	handlerAllocCeilingRace = 46
)

// TestInferHandlerAllocs pins the allocations of the infer handler, so
// a new one on the request path shows here before it shows in latency.
func TestInferHandlerAllocs(t *testing.T) {
	// A K=256 model on a toy corpus: the count does not depend on the
	// corpus, and training the served shape takes seconds under -race.
	s, _ := newTestServer(t, ServeOptions{}, registry.Options{},
		map[string]*warplda.Model{"news": trainStressModel(t, 256, 1)}, "news")
	const body = `{"docs":[[0,5,7,5,11,2,3,40,41,7,7,9,60,1,0,79]]}`
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	ceiling := float64(handlerAllocCeiling)
	if raceEnabled {
		ceiling = handlerAllocCeilingRace
	}
	serve()
	// Best of a few attempts: a GC mid-measurement empties the pools
	// (and under -race sync.Pool drops a share of its puts on purpose),
	// charging refills to one attempt; the gate is that the steady
	// state is reachable.
	allocs := testing.AllocsPerRun(200, serve)
	for try := 0; allocs > ceiling && try < 4; try++ {
		allocs = min(allocs, testing.AllocsPerRun(200, serve))
	}
	t.Logf("%.1f allocs per infer request", allocs)
	if allocs > ceiling {
		t.Errorf("infer handler does %.1f allocs per request, want <= %.0f", allocs, ceiling)
	}
}

// servedModel is the model the benchmark's serve workloads serve —
// K=256, 20 iterations on NYTimesLike(0.005) — and its corpus, trained
// once per test binary.
var servedModel = sync.OnceValues(func() (*warplda.Model, *warplda.Corpus) {
	c, err := warplda.GenerateLDA(corpus.NYTimesLike(0.005))
	if err != nil {
		panic(err)
	}
	cfg := warplda.Defaults(256)
	cfg.M = 2
	m, err := warplda.Train(c, cfg, 20)
	if err != nil {
		panic(err)
	}
	return m, c
})

// servedRows folds the first n corpus documents of at least ld tokens,
// cut to ld, into the served model as the server does (MH 2, 20
// sweeps, seed 42), and returns their θ rows.
func servedRows(b *testing.B, n, ld int) [][]float64 {
	m, c := servedModel()
	eng, err := warplda.NewInferEngine(m, warplda.InferOptions{MHSteps: 2})
	if err != nil {
		b.Fatal(err)
	}
	var docs [][]int32
	for _, doc := range c.Docs {
		if len(doc) >= ld && len(docs) < n {
			docs = append(docs, doc[:ld])
		}
	}
	rows, err := eng.InferBatch(docs, 20, 42)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkInferReply times the reply appender alone on the served
// model's θ rows (servedRows): one document of 16 and one of 128 tokens
// (serve-singles' documents), 16 of 256 (serve-batch's), and one row of
// 256 distinct values, where the memo finds nothing.
func BenchmarkInferReply(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	distinct := make([]float64, 256)
	for i := range distinct {
		distinct[i] = rnd.Float64() / 256
	}
	for _, bc := range []struct {
		name string
		rows [][]float64
	}{
		{"1x256-L16", servedRows(b, 1, 16)},
		{"1x256-L128", servedRows(b, 1, 128)},
		{"16x256-L256", servedRows(b, 16, 256)},
		{"1x256-distinct", [][]float64{distinct}},
	} {
		r := inferResponse{Model: "news", Version: 20, Topics: bc.rows, Top: argmax(bc.rows), TookMs: 0.012}
		b.Run(bc.name, func(b *testing.B) {
			var m floatMemo
			buf := appendInferReply(nil, &m, &r)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendInferReply(buf[:0], &m, &r)
			}
		})
	}
}

// BenchmarkInferHandler times one 16-token infer through
// Server.ServeHTTP at the served shape (MH 2, 20 sweeps): body decode,
// admission, the engine and the reply. The documents are the first 16
// tokens of the corpus's documents.
func BenchmarkInferHandler(b *testing.B) {
	m, c := servedModel()
	s, reg := newTestServer(b, ServeOptions{}, registry.Options{Infer: warplda.InferOptions{MHSteps: 2}},
		map[string]*warplda.Model{"news": m}, "news")
	if _, err := reg.Acquire("news"); err != nil {
		b.Fatal(err)
	}
	var bodies []string
	for _, doc := range c.Docs {
		if len(doc) >= 16 {
			body, _ := json.Marshal(inferRequest{Docs: [][]int32{doc[:16]}})
			bodies = append(bodies, string(body))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
