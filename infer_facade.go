package warplda

import (
	"io"
	"sync"

	"warplda/internal/infer"
)

// InferEngine answers fold-in queries against a frozen trained model in
// O(1) per token: it holds the word-topic counts as compact per-word
// rows with sparse alias tables over Φ̂, precomputed once at
// construction and amortized across all requests, and InferBatch
// shards document batches across a worker pool. Engines are safe for
// concurrent use. See NewInferEngine and ReadInferEngine.
type InferEngine = infer.Engine

// InferOptions tune an InferEngine (MH steps per token, worker-pool
// size). The zero value picks sensible defaults.
type InferOptions = infer.Options

// NewInferEngine builds a reusable inference engine over m. The engine
// copies m's word-topic counts into its own compact per-word rows (it
// does not retain m.Cw) and retains m.Ck; do not mutate m.Ck while it is
// in use. Construction scans the V·K cells once — build one engine per
// model and reuse it. A server should load with ReadInferEngine, which
// never holds the V×K array.
func NewInferEngine(m *Model, opts InferOptions) (*InferEngine, error) {
	return infer.NewEngine(inferParams(m), opts)
}

// ReadInferEngine reads a model file as ReadModel does and builds its
// inference engine from the counts as they stream past, so no V×K array
// is ever allocated: the returned Model has every field but Cw, which
// is nil (the counts are the engine's; see InferEngine.Count), and
// shares Ck with the engine. cmd/warplda-serve's registry loads this
// way.
func ReadInferEngine(r io.Reader, opts InferOptions) (*Model, *InferEngine, error) {
	var rows *infer.Rows
	m, err := readModel(r, func(m *Model) func([]int32) {
		rows = infer.NewRows(m.V, m.Cfg.K)
		return rows.Write
	})
	if err != nil {
		return nil, nil, err
	}
	eng, err := rows.Engine(inferParams(m), opts)
	if err != nil {
		return nil, nil, err
	}
	return m, eng, nil
}

// inferParams are m's engine parameters.
func inferParams(m *Model) infer.Params {
	return infer.Params{
		V: m.V, K: m.Cfg.K,
		Alpha: m.Cfg.Alpha, Beta: m.Cfg.Beta,
		Cw: m.Cw, Ck: m.Ck,
	}
}

// inferEngineMu guards the cached-engine pointer below. Package-level
// so Model carries no lock and stays copyable. The lock is held only
// for the pointer load/store — never across the O(V·K) build — so
// models cannot stall each other; the remaining per-call cost is one
// uncontended mutex round trip. Callers answering heavy concurrent
// query traffic should hold their own engine (NewInferEngine, or
// ReadInferEngine as cmd/warplda-serve's registry does).
var inferEngineMu sync.Mutex

// inferEngine lazily builds and caches the engine backing
// Model.DocTopics and Model.HeldOutPerplexity. Concurrent first calls
// may each build an engine; one wins the cache and the others are
// dropped (engines are stateless, so any copy is interchangeable).
// Construction errors are not cached: a caller that fixes the model's
// fields gets a working engine on the next call.
func (m *Model) inferEngine() (*InferEngine, error) {
	inferEngineMu.Lock()
	eng := m.inferEng
	inferEngineMu.Unlock()
	if eng != nil {
		return eng, nil
	}
	built, err := NewInferEngine(m, InferOptions{})
	if err != nil {
		return nil, err
	}
	inferEngineMu.Lock()
	if m.inferEng == nil {
		m.inferEng = built
	}
	eng = m.inferEng
	inferEngineMu.Unlock()
	return eng, nil
}
