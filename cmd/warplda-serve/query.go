package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"warplda/internal/query"
	"warplda/internal/registry"
)

// The analytics query surface: GET/POST /v1/models/{name}/query/{kind}.
// Every query is admitted through the model's gate (the same admit path
// as inference), answered from the snapshot admission resolved, and
// streamed row by row under the configured row/byte budgets — a
// response is never materialized in full. Pages link via next_cursor;
// see docs/API.md for the contract.

// queryRequest is the POST body of the topdocs and similar kinds. The
// candidate set is Docs (token ids) or Texts (tokenized against the
// model vocabulary), exactly one. similar additionally takes the query
// document as Query or QueryText.
type queryRequest struct {
	Docs  [][]int32 `json:"docs,omitempty"`
	Texts []string  `json:"texts,omitempty"`

	Query     []int32 `json:"query,omitempty"`
	QueryText string  `json:"query_text,omitempty"`

	Topic  int    `json:"topic,omitempty"`
	Sweeps int    `json:"sweeps,omitempty"`
	Limit  int    `json:"limit,omitempty"`
	Cursor string `json:"cursor,omitempty"`
}

// page is one request's resolved pagination window.
type page struct {
	limit  int
	cursor int
}

// pageOf resolves limit/cursor strings onto the configured bounds:
// empty limit means QueryDefaultLimit, anything above QueryMaxLimit is
// clamped to it, and the cursor must be a value a previous response's
// next_cursor produced.
func (s *Server) pageOf(limitStr, cursorStr string) (page, error) {
	p := page{limit: s.opts.QueryDefaultLimit}
	if limitStr != "" && limitStr != "0" {
		n, err := strconv.Atoi(limitStr)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad limit %q: want a non-negative integer", limitStr)
		}
		p.limit = n
	}
	if p.limit == 0 || p.limit > s.opts.QueryMaxLimit {
		p.limit = s.opts.QueryMaxLimit
	}
	cursor, err := query.ParseCursor(cursorStr)
	if err != nil {
		return p, err
	}
	p.cursor = cursor
	return p, nil
}

// depth is the selection depth a paginated top-N query needs: the page
// window plus one probe row so truncation (are there more ranked rows
// behind this page?) is decidable without a second selection pass.
func (p page) depth() int { return p.cursor + p.limit + 1 }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, kind string) {
	name := r.PathValue("name")
	// Admission first: a saturated model sheds cheap and early, before
	// any parameter or body parsing.
	snap, release, ok := s.admit(w, r, name)
	if !ok {
		return
	}
	defer release()

	switch kind {
	case "topwords":
		s.queryTopWords(w, r, name, snap)
	case "vocab":
		s.queryVocab(w, r, name, snap)
	case "drift":
		s.queryDrift(w, r, name, snap)
	case "topdocs", "similar":
		s.queryDocs(w, r, name, snap, kind)
	}
}

func (s *Server) queryTopWords(w http.ResponseWriter, r *http.Request, name string, snap *registry.Snapshot) {
	q := r.URL.Query()
	p, err := s.pageOf(q.Get("limit"), q.Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	topic, err := topicParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	start := time.Now()
	it, err := query.TopWords(queryModel(snap), topic, p.depth())
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	streamRows(s, w, name, snap.Version, "", p, it, start)
}

func (s *Server) queryVocab(w http.ResponseWriter, r *http.Request, name string, snap *registry.Snapshot) {
	q := r.URL.Query()
	p, err := s.pageOf(q.Get("limit"), q.Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	start := time.Now()
	it := query.VocabSlice(queryModel(snap), q.Get("prefix"))
	streamRows(s, w, name, snap.Version, "", p, it, start)
}

func (s *Server) queryDrift(w http.ResponseWriter, r *http.Request, name string, snapA *registry.Snapshot) {
	q := r.URL.Query()
	p, err := s.pageOf(q.Get("limit"), q.Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	against := q.Get("against")
	if against == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0,
			"drift needs ?against=<model or model@iter> to compare with")
		return
	}
	topM := 10
	if v := q.Get("top"); v != "" {
		topM, err = strconv.Atoi(v)
		if err != nil || topM <= 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, 0, "bad top %q: want a positive integer", v)
			return
		}
	}
	// Pin the second version for the duration too: snapshots are
	// immutable, so the comparison is consistent even if either name
	// hot-swaps mid-stream. <base>@<iter> names pin an exact published
	// iteration.
	snapB, ok := s.acquire(w, against)
	if !ok {
		return
	}
	start := time.Now()
	it, err := query.Drift(queryModel(snapA), queryModel(snapB), topM)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	extra := fmt.Sprintf(`,"against":%s,"against_version":%d`, mustJSON(against), snapB.Version)
	streamRows(s, w, name, snapA.Version, extra, p, it, start)
}

func (s *Server) queryDocs(w http.ResponseWriter, r *http.Request, name string, snap *registry.Snapshot, kind string) {
	var req queryRequest
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
	p, err := s.pageOf(strconv.Itoa(req.Limit), req.Cursor)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	docs, status, err := s.resolveDocs(snap, &inferRequest{Docs: req.Docs, Texts: req.Texts})
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
	m := queryModel(snap)
	start := time.Now()
	switch kind {
	case "topdocs":
		it, err := query.TopDocs(m, docs, req.Topic, sweeps, s.opts.Seed, p.depth())
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
			return
		}
		streamRows(s, w, name, snap.Version, "", p, it, start)
	case "similar":
		queryDoc := req.Query
		switch {
		case req.Query != nil && req.QueryText != "":
			writeError(w, http.StatusBadRequest, codeBadRequest, 0, "set either query or query_text, not both")
			return
		case req.QueryText != "":
			if snap.Vocab == nil {
				writeError(w, http.StatusBadRequest, codeBadRequest, 0,
					"model has no vocabulary; send token ids via query")
				return
			}
			queryDoc = tokenize(snap.Vocab, req.QueryText)
		case req.Query == nil:
			writeError(w, http.StatusBadRequest, codeBadRequest, 0, "similar needs a query document (query or query_text)")
			return
		}
		it, err := query.Similar(m, queryDoc, docs, sweeps, s.opts.Seed, p.depth())
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
			return
		}
		streamRows(s, w, name, snap.Version, "", p, it, start)
	}
}

// queryModel adapts a registry snapshot to the query layer's view.
func queryModel(snap *registry.Snapshot) query.Model {
	return query.Model{Engine: snap.Engine, Vocab: snap.Model.Vocab}
}

// topicParam reads the required ?topic= of topwords.
func topicParam(q url.Values) (int, error) {
	v := q.Get("topic")
	if v == "" {
		return 0, nil // topic 0 is the documented default
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad topic %q: want an integer", v)
	}
	return n, nil
}

// streamRows writes one query page: a fixed header, the rows streamed
// straight from the iterator under the row/byte budget, then the
// pagination footer. The first row is pulled before anything is
// written, so builder-stage validation errors (a bad token id in a
// candidate document, say) still get a clean 400 envelope; after that
// first byte the status is committed and a late iterator error is
// reported in-body via a trailing "error" field.
func streamRows[T any](s *Server, w http.ResponseWriter, model string, version int, extra string, p page, it *query.Iter[T], start time.Time) {
	win := query.Skip(it, p.cursor)
	first, ok := win.Next()
	if err := win.Err(); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, 0, "%v", err)
		return
	}
	rows := win
	if ok {
		rows = prepend(first, win)
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"model":%s,"version":%d%s,"rows":`, mustJSON(model), version, extra)
	st, err := query.StreamArray(w, rows, query.Budget{MaxRows: p.limit, MaxBytes: s.opts.QueryMaxBytes})
	fmt.Fprintf(w, `,"row_count":%d,"truncated":%t`, st.Rows, st.Truncated)
	if st.Truncated {
		fmt.Fprintf(w, `,"next_cursor":%s`, mustJSON(query.Cursor(p.cursor+st.Rows)))
	}
	if err != nil {
		fmt.Fprintf(w, `,"error":%s`, mustJSON(err.Error()))
	}
	fmt.Fprintf(w, `,"took_ms":%g}`+"\n", float64(time.Since(start).Microseconds())/1000)
	s.queries.Add(1)
	s.qlatency.Record(time.Since(start).Microseconds())
}

// prepend pushes the peeked row back in front of the iterator.
func prepend[T any](row T, it *query.Iter[T]) *query.Iter[T] {
	sent := false
	return query.NewIter(func() (T, bool, error) {
		if !sent {
			sent = true
			return row, true, nil
		}
		r, ok := it.Next()
		return r, ok, it.Err()
	})
}

// mustJSON renders a string as a JSON literal for hand-assembled
// response framing (strings are the only values framed this way).
func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
