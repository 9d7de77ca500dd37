package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warplda/internal/corpus"
	"warplda/internal/hist"
	"warplda/internal/infer"
	"warplda/internal/registry"
)

// ServeOptions configure the HTTP layer over a model registry.
type ServeOptions struct {
	// DefaultModel is the registry model the bare POST /v1/infer route
	// serves. Empty disables that route (404); POST
	// /v1/models/{name}/infer always works.
	DefaultModel string
	// Sweeps is the default fold-in sweep count when a request does not
	// set one. 0 means 20.
	Sweeps int
	// MaxSweeps caps the per-request sweep count. 0 means 500.
	MaxSweeps int
	// MaxBatch caps the number of documents per request. 0 means 1024.
	MaxBatch int
	// MaxBodyBytes caps the request body size. 0 means 32 MiB.
	MaxBodyBytes int64
	// Seed is the base RNG seed; per-document seeds are derived from it
	// and the document content, so responses are deterministic.
	Seed uint64

	// QueueDepth bounds each model's admission gate: at most this many
	// infer and query requests of one model hold a slot at once (0 =
	// 256). Past it, a request without a deadline is shed with 503
	// queue_full; one with a deadline waits for a slot until it passes.
	QueueDepth int
	// DefaultDeadline is the admission deadline applied to inference and
	// query requests that do not carry an X-Deadline-Ms header. A
	// request whose deadline passes while it waits for admission is shed
	// with 503 + Retry-After instead of consuming engine time the client
	// has already given up on. 0 means no default deadline.
	DefaultDeadline time.Duration

	// QueryDefaultLimit is the page size a query request gets when it
	// does not set limit (0 means 50); QueryMaxLimit caps the requested
	// limit (0 means 500). QueryMaxBytes caps the encoded size of one
	// response's rows array (0 means 1 MiB) — a page that would exceed
	// it is cut short and returns a next_cursor instead.
	QueryDefaultLimit int
	QueryMaxLimit     int
	QueryMaxBytes     int64
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.Sweeps <= 0 {
		o.Sweeps = 20
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 500
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.QueryDefaultLimit <= 0 {
		o.QueryDefaultLimit = 50
	}
	if o.QueryMaxLimit <= 0 {
		o.QueryMaxLimit = 500
	}
	if o.QueryMaxBytes <= 0 {
		o.QueryMaxBytes = 1 << 20
	}
	return o
}

// inferRequest is the POST /v1/infer body. Exactly one of Docs (token
// id arrays) or Texts (raw text, requires a model vocabulary) must be
// set.
type inferRequest struct {
	Docs   [][]int32 `json:"docs,omitempty"`
	Texts  []string  `json:"texts,omitempty"`
	Sweeps int       `json:"sweeps,omitempty"`
}

// inferResponse is the infer reply: one topic distribution (and its
// argmax) per input document, in input order, plus which model version
// answered.
type inferResponse struct {
	Model   string      `json:"model"`
	Version int         `json:"version"`
	Topics  [][]float64 `json:"topics"`
	Top     []int       `json:"top"`
	TookMs  float64     `json:"took_ms"`
}

type healthResponse struct {
	Status        string `json:"status"` // "ok" or "draining"
	DefaultModel  string `json:"default_model,omitempty"`
	ModelsReady   int    `json:"models_ready"`
	BytesResident int64  `json:"bytes_resident"`
	MaxBytes      int64  `json:"max_bytes"`
	DocsServed    int64  `json:"docs_served"`
}

// modelsResponse is the GET /v1/models reply.
type modelsResponse struct {
	registry.Stats
	Models []registry.ModelInfo `json:"models"`
}

// statsResponse is the GET /v1/stats reply: the serving-side view of
// throughput and latency that cmd/warplda-loadgen and dashboards read.
// LatencyUs summarizes successful inference handler time and
// QueryLatencyUs successful query handler time, both in microseconds
// (log-linear histogram quantiles, ~3% relative error).
type statsResponse struct {
	Status         string                     `json:"status"`
	DocsServed     int64                      `json:"docs_served"`
	QueriesServed  int64                      `json:"queries_served"`
	LatencyUs      hist.Snapshot              `json:"latency_us"`
	QueryLatencyUs hist.Snapshot              `json:"query_latency_us"`
	Registry       registry.Stats             `json:"registry"`
	Gates          map[string]infer.GateStats `json:"gates,omitempty"`
}

// Server routes multi-model inference, analytics-query, and admin
// traffic onto a registry. Every route lives under /v1/ (see
// docs/API.md). It implements http.Handler; Drain flips
// it into the shutting-down state in which inference and query
// requests are refused with 503 while in-flight ones complete.
type Server struct {
	reg      *registry.Registry
	opts     ServeOptions
	mux      *http.ServeMux
	served   atomic.Int64
	queries  atomic.Int64
	draining atomic.Bool

	// latency records successful end-to-end inference handler time and
	// qlatency successful query handler time, both in microseconds,
	// exposed as quantiles on GET /v1/stats.
	latency  *hist.Histogram
	qlatency *hist.Histogram

	// gates holds one admission gate per model name, created on the
	// name's first admitted request (see admit).
	gateMu sync.Mutex
	gates  map[string]*infer.Gate
}

// NewServer builds the HTTP handler over reg. Models load lazily
// through the registry on first request; callers that want fail-fast
// startup behavior acquire the default model before serving, as
// cmd/warplda-serve's main does.
func NewServer(reg *registry.Registry, opts ServeOptions) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	s := &Server{
		reg:      reg,
		opts:     opts.withDefaults(),
		latency:  hist.New(),
		qlatency: hist.New(),
		gates:    make(map[string]*infer.Gate),
	}
	mux := http.NewServeMux()

	// route mounts "METHOD /v1<path>" plus a method-less fallback that
	// keeps a wrong-method request on the JSON error contract
	// (ServeMux's own 405 is plain text).
	route := func(method, path string, h http.HandlerFunc) {
		path = "/v1" + path
		mux.HandleFunc(method+" "+path, h)
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, 0, "use %s %s", method, path)
		})
	}
	route("POST", "/infer", func(w http.ResponseWriter, r *http.Request) {
		if s.opts.DefaultModel == "" {
			writeError(w, http.StatusNotFound, codeNotFound, 0,
				"no default model configured; use /v1/models/{name}/infer")
			return
		}
		s.handleInfer(w, r, s.opts.DefaultModel)
	})
	route("POST", "/models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		s.handleInfer(w, r, r.PathValue("name"))
	})
	route("GET", "/models", s.handleModels)
	route("GET", "/models/{name}", s.handleModelInfo)
	route("GET", "/healthz", s.handleHealth)
	route("GET", "/stats", s.handleStats)
	for kind, method := range map[string]string{
		"topwords": "GET", "vocab": "GET", "drift": "GET",
		"topdocs": "POST", "similar": "POST",
	} {
		route(method, "/models/{name}/query/"+kind, func(w http.ResponseWriter, r *http.Request) {
			s.handleQuery(w, r, kind)
		})
	}
	mux.HandleFunc("/v1/models/{name}/query/{kind}", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound, 0,
			"unknown query kind %q: want topwords, vocab, drift, topdocs, or similar", r.PathValue("kind"))
	})
	// Catch-all so that a path nothing above matched — an unversioned
	// one included — still answers on the JSON error contract instead
	// of ServeMux's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound, 0, "no route %s", r.URL.Path)
	})
	s.mux = mux
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain refuses new inference and query work with 503 (admin and
// health stay up, reporting "draining") so load balancers can rotate
// the instance out while http.Server.Shutdown lets in-flight requests
// finish.
func (s *Server) Drain() { s.draining.Store(true) }

// acquire resolves a model name through the registry, writing the
// registry's refusal (404, 503 + Retry-After, 500) when it fails.
func (s *Server) acquire(w http.ResponseWriter, name string) (*registry.Snapshot, bool) {
	snap, err := s.reg.Acquire(name)
	if err == nil {
		return snap, true
	}
	s.writeRegistryError(w, err)
	return nil, false
}

// admit is the one admission path of every infer and query request.
// It refuses work while draining, resolves the model — so an unknown
// name answers 404 and creates no gate — reads the request's deadline
// and enters the model's gate. On success the caller holds a slot and
// must call release once the response is written: the gate bounds
// in-flight work, not just its setup.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, name string) (snap *registry.Snapshot, release func(), ok bool) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, 0, "server is draining")
		return nil, nil, false
	}
	if snap, ok = s.acquire(w, name); !ok {
		return nil, nil, false
	}
	deadline, err := s.requestDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return nil, nil, false
	}
	release, err = s.gateFor(name).Enter(deadline)
	if err != nil {
		code := codeQueueFull
		if errors.Is(err, infer.ErrDeadlineExceeded) {
			code = codeDeadlineExceeded
		}
		writeError(w, http.StatusServiceUnavailable, code, time.Second, "%v", err)
		return nil, nil, false
	}
	return snap, release, true
}

// gateFor returns the model's admission gate, creating it on first use.
func (s *Server) gateFor(name string) *infer.Gate {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if g := s.gates[name]; g != nil {
		return g
	}
	g := infer.NewGate(s.opts.QueueDepth)
	s.gates[name] = g
	return g
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.reg.RegistryStats()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        status,
		DefaultModel:  s.opts.DefaultModel,
		ModelsReady:   st.Ready,
		BytesResident: st.BytesResident,
		MaxBytes:      st.MaxBytes,
		DocsServed:    s.served.Load(),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{
		Stats:  s.reg.RegistryStats(),
		Models: s.reg.List(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	resp := statsResponse{
		Status:         status,
		DocsServed:     s.served.Load(),
		QueriesServed:  s.queries.Load(),
		LatencyUs:      s.latency.Summary(),
		QueryLatencyUs: s.qlatency.Summary(),
		Registry:       s.reg.RegistryStats(),
	}
	s.gateMu.Lock()
	if len(s.gates) > 0 {
		resp.Gates = make(map[string]infer.GateStats, len(s.gates))
		for name, g := range s.gates {
			resp.Gates[name] = g.Stats()
		}
	}
	s.gateMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	mi, ok := s.reg.Info(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, 0, "model not found: %q", name)
		return
	}
	writeJSON(w, http.StatusOK, mi)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, name string) {
	var req inferRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, 0,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "bad request body: %v", err)
		return
	}
	// Admit after the body parse: bad requests stay 4xx even when the
	// model would also need a load, and parse work never holds a slot.
	snap, release, ok := s.admit(w, r, name)
	if !ok {
		return
	}
	defer release()
	docs, status, err := s.resolveDocs(snap, &req)
	if err != nil {
		code := codeBadRequest
		if status == http.StatusRequestEntityTooLarge {
			code = codePayloadTooLarge
		}
		writeError(w, status, code, 0, "%v", err)
		return
	}
	sweeps := req.Sweeps
	if sweeps <= 0 {
		sweeps = s.opts.Sweeps
	}
	if sweeps > s.opts.MaxSweeps {
		sweeps = s.opts.MaxSweeps
	}

	start := time.Now()
	topics, err := snap.Engine.InferBatch(docs, sweeps, s.opts.Seed)
	if err != nil {
		// Word ids out of the model's range are a caller error.
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	s.served.Add(int64(len(docs)))
	s.latency.Record(time.Since(start).Microseconds())

	writeInferReply(w, &inferResponse{
		Model:   name,
		Version: snap.Version,
		Topics:  topics,
		TookMs:  float64(time.Since(start).Microseconds()) / 1000,
	})
}

// requestDeadline resolves a request's admission deadline: the
// X-Deadline-Ms header (a client latency budget in milliseconds) wins,
// else the server's DefaultDeadline, else none.
func (s *Server) requestDeadline(r *http.Request) (time.Time, error) {
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			return time.Time{}, fmt.Errorf("bad X-Deadline-Ms %q: want a positive integer", h)
		}
		return time.Now().Add(time.Duration(ms) * time.Millisecond), nil
	}
	if s.opts.DefaultDeadline > 0 {
		return time.Now().Add(s.opts.DefaultDeadline), nil
	}
	return time.Time{}, nil
}

// resolveDocs turns the request into token-id documents, tokenizing
// Texts against the snapshot's vocabulary index when needed.
func (s *Server) resolveDocs(snap *registry.Snapshot, req *inferRequest) ([][]int32, int, error) {
	switch {
	case req.Docs != nil && req.Texts != nil:
		return nil, http.StatusBadRequest, fmt.Errorf("set either docs or texts, not both")
	case req.Docs != nil:
		if len(req.Docs) > s.opts.MaxBatch {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of %d docs exceeds limit %d", len(req.Docs), s.opts.MaxBatch)
		}
		return req.Docs, 0, nil
	case req.Texts != nil:
		if snap.Vocab == nil {
			return nil, http.StatusBadRequest,
				fmt.Errorf("model has no vocabulary; send token ids via docs")
		}
		if len(req.Texts) > s.opts.MaxBatch {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch of %d texts exceeds limit %d", len(req.Texts), s.opts.MaxBatch)
		}
		docs := make([][]int32, len(req.Texts))
		for i, text := range req.Texts {
			docs[i] = tokenize(snap.Vocab, text)
		}
		return docs, 0, nil
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("empty request: set docs or texts")
	}
}

// tokenize maps raw text onto a model's token ids. Two-level lookup: a
// lowercased whitespace field is tried verbatim first, so vocabularies
// with entries Normalize can't emit (underscored entities like
// "zzz_new_york" in the UCI NYTimes vocab) still match; otherwise the
// field gets the character normalization FromText applies at training
// time, whose stopword/frequency filters the vocabulary lookup
// subsumes (filtered words never got an id). Out-of-vocabulary words
// carry no information under the trained Φ̂ and are dropped.
func tokenize(vocab map[string]int32, text string) []int32 {
	var doc []int32
	for _, field := range strings.Fields(strings.ToLower(text)) {
		if id, ok := vocab[field]; ok {
			doc = append(doc, id)
			continue
		}
		for _, tok := range corpus.Normalize(field) {
			if id, ok := vocab[tok]; ok {
				doc = append(doc, id)
			}
		}
	}
	return doc
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
