// Package query is the topic-analytics layer over served models: it
// turns the infer engine's frozen sparse structures (word-topic
// counts, per-word Φ̂ columns, sparse fold-in mixtures) into composable
// streaming queries — top words and top documents per topic,
// similar-document search, topic-drift comparison between two
// published versions, and vocabulary slicing.
//
// Everything is built on lazily-evaluated pull iterators (Iter) so
// that no query ever materializes its full result: selection queries
// (top-N) keep a bounded heap of cursor+limit candidates while
// scanning, scan queries (vocabulary slices) compute each row on pull,
// and the HTTP layer streams rows straight into the response under a
// row/byte budget (StreamArray), emitting a cursor instead of the
// tail. Pagination composes as Limit(Skip(source, cursor), limit).
//
// The package depends only on internal/infer; cmd/warplda-serve mounts
// it under GET/POST /v1/models/{name}/query/* (see docs/API.md).
package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"warplda/internal/infer"
)

// Model is the query layer's view of one served model: its frozen
// inference engine and, when the model was trained with one, its
// vocabulary (word labels by token id).
type Model struct {
	Engine *infer.Engine
	Vocab  []string // may be nil; labels fall back to decimal ids
}

// label returns the display form of word id w.
func (m Model) label(w int32) string {
	if int(w) < len(m.Vocab) {
		return m.Vocab[w]
	}
	return strconv.Itoa(int(w))
}

// MaxSelectionDepth bounds cursor+limit for selection (top-N) queries:
// the selection heap is O(depth), so an unbounded cursor would let one
// request allocate arbitrarily. Deep pagination into ranked results is
// a smell anyway — rank 10000 of a topic's words is noise.
const MaxSelectionDepth = 10000

// ranked is one scored candidate in a selection query.
type ranked struct {
	id    int32
	score float64
}

// better reports whether a outranks b: higher score first, smaller id
// breaking ties, so every ranking in the package is deterministic.
func better(a, b ranked) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// topHeap is a bounded min-heap of the best `depth` candidates seen so
// far, ordered so the root is the weakest retained candidate.
type topHeap struct {
	depth int
	h     []ranked
}

func (t *topHeap) offer(c ranked) {
	if t.depth <= 0 {
		return
	}
	if len(t.h) < t.depth {
		t.h = append(t.h, c)
		// Sift up: the root holds the weakest retained candidate, so a
		// parent outranking its child violates the invariant.
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if better(t.h[p], t.h[i]) {
				t.h[p], t.h[i] = t.h[i], t.h[p]
				i = p
				continue
			}
			break
		}
		return
	}
	if !better(c, t.h[0]) {
		return
	}
	t.h[0] = c
	// Sift down.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(t.h) && !better(t.h[l], t.h[worst]) {
			worst = l
		}
		if r < len(t.h) && !better(t.h[r], t.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// drain returns the retained candidates best-first, consuming the heap.
func (t *topHeap) drain() []ranked {
	out := t.h
	// Heap order is only partial; a final sort of the O(depth) survivors
	// is cheap and gives the emission order.
	sortRanked(out)
	return out
}

func sortRanked(s []ranked) {
	// Insertion sort: depth is small and bounded (MaxSelectionDepth).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && better(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// emitRanked wraps a lazily-run selection in an Iter: build runs on the
// first pull only, and the survivors are emitted one at a time.
func emitRanked[T any](build func() ([]ranked, error), row func(ranked) T) *Iter[T] {
	var rows []ranked
	built := false
	i := 0
	return NewIter(func() (T, bool, error) {
		var zero T
		if !built {
			r, err := build()
			if err != nil {
				return zero, false, err
			}
			rows, built = r, true
		}
		if i >= len(rows) {
			return zero, false, nil
		}
		r := rows[i]
		i++
		return row(r), true, nil
	})
}

// WordRow is one word in a topic's ranking.
type WordRow struct {
	ID    int32   `json:"id"`
	Word  string  `json:"word"`
	Count int32   `json:"count"`
	Phi   float64 `json:"phi"`
}

// TopWords ranks topic k's words by their frozen word-topic count
// (ties by word id), retaining only the best depth candidates during
// the column scan (Engine.Column: O(V) bit tests plus the column's
// nonzeros). The scan runs lazily, on the first pull.
func TopWords(m Model, topic, depth int) (*Iter[WordRow], error) {
	e := m.Engine
	if topic < 0 || topic >= e.K() {
		return nil, fmt.Errorf("query: topic %d outside [0,%d)", topic, e.K())
	}
	if depth, err := checkDepth(depth); err != nil {
		return nil, err
	} else if depth == 0 {
		return emptyIter[WordRow](), nil
	}
	build := func() ([]ranked, error) {
		t := topHeap{depth: depth}
		e.Column(topic, func(w int, c int32) { t.offer(ranked{id: int32(w), score: float64(c)}) })
		return t.drain(), nil
	}
	return emitRanked(build, func(r ranked) WordRow {
		return WordRow{
			ID:    r.id,
			Word:  m.label(r.id),
			Count: int32(r.score),
			Phi:   e.Phi(int(r.id), topic),
		}
	}), nil
}

// checkDepth validates a selection depth (cursor+limit).
func checkDepth(depth int) (int, error) {
	if depth < 0 {
		depth = 0
	}
	if depth > MaxSelectionDepth {
		return 0, fmt.Errorf("query: cursor+limit %d exceeds the selection depth cap %d", depth, MaxSelectionDepth)
	}
	return depth, nil
}

func emptyIter[T any]() *Iter[T] {
	return NewIter(func() (T, bool, error) { var zero T; return zero, false, nil })
}

// VocabRow is one vocabulary entry in a slice.
type VocabRow struct {
	ID   int32  `json:"id"`
	Word string `json:"word"`
	// Tokens is the word's total training token count across topics.
	Tokens int64 `json:"tokens"`
}

// VocabSlice iterates the model's vocabulary in id order, keeping only
// words whose label starts with prefix (empty prefix keeps all). Each
// row's per-word work (the count sum over the word's support) runs on
// pull; skipped non-matching words cost only the prefix test.
func VocabSlice(m Model, prefix string) *Iter[VocabRow] {
	e := m.Engine
	w := 0
	return NewIter(func() (VocabRow, bool, error) {
		for ; w < e.V(); w++ {
			label := m.label(int32(w))
			if !strings.HasPrefix(label, prefix) {
				continue
			}
			row := VocabRow{ID: int32(w), Word: label, Tokens: e.Tokens(w)}
			w++
			return row, true, nil
		}
		return VocabRow{}, false, nil
	})
}

// DocRow is one candidate document in a per-topic ranking. Doc is the
// document's index in the request's candidate list.
type DocRow struct {
	Doc    int     `json:"doc"`
	Weight float64 `json:"weight"`
}

// TopDocs ranks candidate documents by the share of their tokens the
// fold-in chain assigns to topic k. Candidates are folded in one at a
// time — a bounded heap of depth survivors plus one sparse mixture are
// the only per-query state — and the fold runs lazily on the first
// pull. Results are deterministic in (docs, sweeps, seed).
func TopDocs(m Model, docs [][]int32, topic, sweeps int, seed uint64, depth int) (*Iter[DocRow], error) {
	e := m.Engine
	if topic < 0 || topic >= e.K() {
		return nil, fmt.Errorf("query: topic %d outside [0,%d)", topic, e.K())
	}
	depth, err := checkDepth(depth)
	if err != nil {
		return nil, err
	}
	if depth == 0 {
		return emptyIter[DocRow](), nil
	}
	build := func() ([]ranked, error) {
		t := topHeap{depth: depth}
		for i, doc := range docs {
			theta, err := e.InferSparse(doc, sweeps, seed)
			if err != nil {
				return nil, fmt.Errorf("query: doc %d: %w", i, err)
			}
			var w float64
			for _, entry := range theta {
				if entry.Topic == int32(topic) {
					w = entry.Weight
					break
				}
			}
			t.offer(ranked{id: int32(i), score: w})
		}
		return t.drain(), nil
	}
	return emitRanked(build, func(r ranked) DocRow {
		return DocRow{Doc: int(r.id), Weight: r.score}
	}), nil
}

// SimRow is one candidate document in a similarity ranking.
type SimRow struct {
	Doc   int     `json:"doc"`
	Score float64 `json:"score"`
}

// Similar ranks candidate documents by the cosine similarity of their
// sparse fold-in mixtures against the query document's — the sparse Θ
// dot product touches only topics both documents occupy. The query
// document folds in once; candidates fold one at a time under a
// bounded heap, lazily on the first pull.
func Similar(m Model, queryDoc []int32, docs [][]int32, sweeps int, seed uint64, depth int) (*Iter[SimRow], error) {
	e := m.Engine
	depth, err := checkDepth(depth)
	if err != nil {
		return nil, err
	}
	if depth == 0 {
		return emptyIter[SimRow](), nil
	}
	build := func() ([]ranked, error) {
		qTheta, err := e.InferSparse(queryDoc, sweeps, seed)
		if err != nil {
			return nil, fmt.Errorf("query: query doc: %w", err)
		}
		t := topHeap{depth: depth}
		for i, doc := range docs {
			theta, err := e.InferSparse(doc, sweeps, seed)
			if err != nil {
				return nil, fmt.Errorf("query: doc %d: %w", i, err)
			}
			t.offer(ranked{id: int32(i), score: infer.Cosine(qTheta, theta)})
		}
		return t.drain(), nil
	}
	return emitRanked(build, func(r ranked) SimRow {
		return SimRow{Doc: int(r.id), Score: r.score}
	}), nil
}

// DriftRow compares one topic between two published versions of a
// model: the L1 distance between the topic's Φ̂ columns, the Jaccard
// overlap of the two top-M word sets, and the sets themselves.
type DriftRow struct {
	Topic   int      `json:"topic"`
	L1      float64  `json:"l1"`
	Overlap float64  `json:"overlap"`
	TopA    []string `json:"top_a"`
	TopB    []string `json:"top_b"`
}

// Drift compares two versions of a model topic by topic. Both models
// must share dimensions (a publish sequence never changes V or K; two
// pinned <name>@<iter> versions of one training run always agree).
// Each topic's row — an O(V) column walk plus two bounded top-M
// selections — is computed on pull, so a row-limited or byte-limited
// response only pays for the topics it delivers.
func Drift(a, b Model, topM int) (*Iter[DriftRow], error) {
	if a.Engine.K() != b.Engine.K() || a.Engine.V() != b.Engine.V() {
		return nil, fmt.Errorf("query: model shapes differ: V=%d K=%d vs V=%d K=%d",
			a.Engine.V(), a.Engine.K(), b.Engine.V(), b.Engine.K())
	}
	if topM <= 0 {
		topM = 10
	}
	if topM > 100 {
		topM = 100
	}
	k := 0
	return NewIter(func() (DriftRow, bool, error) {
		if k >= a.Engine.K() {
			return DriftRow{}, false, nil
		}
		row := driftTopic(a, b, k, topM)
		k++
		return row, true, nil
	}), nil
}

// driftTopic computes one topic's drift row.
func driftTopic(a, b Model, k, topM int) DriftRow {
	ea, eb := a.Engine, b.Engine
	var l1 float64
	ta := topHeap{depth: topM}
	tb := topHeap{depth: topM}
	for w := 0; w < ea.V(); w++ {
		ca, cb := ea.Count(w, k), eb.Count(w, k)
		l1 += math.Abs(ea.Phi(w, k) - eb.Phi(w, k))
		if ca > 0 {
			ta.offer(ranked{id: int32(w), score: float64(ca)})
		}
		if cb > 0 {
			tb.offer(ranked{id: int32(w), score: float64(cb)})
		}
	}
	topA, topB := ta.drain(), tb.drain()
	inA := make(map[int32]bool, len(topA))
	for _, r := range topA {
		inA[r.id] = true
	}
	both := 0
	for _, r := range topB {
		if inA[r.id] {
			both++
		}
	}
	union := len(topA) + len(topB) - both
	overlap := 1.0 // two empty sets are identical
	if union > 0 {
		overlap = float64(both) / float64(union)
	}
	row := DriftRow{Topic: k, L1: l1, Overlap: overlap}
	for _, r := range topA {
		row.TopA = append(row.TopA, a.label(r.id))
	}
	for _, r := range topB {
		row.TopB = append(row.TopB, b.label(r.id))
	}
	return row
}
