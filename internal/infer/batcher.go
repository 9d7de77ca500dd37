package infer

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the serve path's request coalescer: a Batcher collects
// concurrent single-document requests into one worker-pool dispatch
// (amortizing dispatch overhead and alias-table cache locality across
// requests) behind a bounded deadline-aware admission queue. It is
// deliberately generic over a Dispatch function rather than an *Engine
// so the HTTP layer can resolve the current model snapshot once per
// batch — a hot swap lands between batches, never inside one.

// Sentinel errors the admission queue sheds requests with. All three
// are retryable conditions the HTTP layer maps to 503 + Retry-After.
var (
	// ErrQueueFull rejects a request at admission: the per-model queue
	// is at capacity, so accepting more work would only grow memory and
	// worsen everyone's latency.
	ErrQueueFull = errors.New("infer: admission queue is full")
	// ErrDeadlineExceeded sheds a request whose deadline passed while
	// it waited in the queue: the client has given up, so inferring for
	// it would be pure waste under overload.
	ErrDeadlineExceeded = errors.New("infer: request deadline exceeded while queued")
	// ErrBatcherClosed refuses requests after Close.
	ErrBatcherClosed = errors.New("infer: batcher is closed")
)

// Dispatch runs one coalesced batch: one sweep count per document,
// one θ̂ per document in order. The returned tag is handed back to
// every request in the batch unchanged (the serve layer passes the
// model snapshot that answered, so responses can report the version).
type Dispatch func(docs [][]int32, sweeps []int) (thetas [][]float64, tag any, err error)

// BatcherOptions tune a Batcher. The zero value picks the defaults
// documented per field.
type BatcherOptions struct {
	// MaxBatch caps the documents per dispatch. 0 means 32. No timer
	// holds a batch open: an idle collector dispatches at once whatever
	// is queued, up to MaxBatch.
	MaxBatch int
	// QueueDepth bounds the admission queue (requests admitted but not
	// yet dispatched). 0 means 256. Beyond it, Do fails fast with
	// ErrQueueFull.
	QueueDepth int
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// BatcherStats are cumulative counters, exposed via the serve /stats
// endpoint and asserted on by the coalescing tests.
type BatcherStats struct {
	// Submitted counts requests admitted to the queue.
	Submitted int64 `json:"submitted"`
	// Batches counts dispatches issued; BatchedDocs the documents they
	// carried. BatchedDocs/Batches is the realized coalescing factor.
	Batches     int64 `json:"batches"`
	BatchedDocs int64 `json:"batched_docs"`
	// MaxBatchSeen is the largest single dispatch so far.
	MaxBatchSeen int64 `json:"max_batch_seen"`
	// ShedQueueFull counts requests refused at admission; ShedDeadline
	// counts requests whose deadline passed, at admission (never
	// Submitted) or in queue (Submitted, never batched).
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	// Fallbacks counts per-request isolation dispatches after a failed
	// multi-doc batch (one bad document must not fail its neighbors).
	Fallbacks int64 `json:"fallbacks"`
}

type batchReq struct {
	doc      []int32
	sweeps   int
	deadline time.Time // zero = no deadline
	done     chan batchOut
}

type batchOut struct {
	theta []float64
	tag   any
	err   error
}

// Batcher coalesces concurrent single-document requests into batched
// dispatches. Safe for concurrent use; create with NewBatcher, stop
// with Close.
type Batcher struct {
	dispatch Dispatch
	opts     BatcherOptions
	queue    chan *batchReq
	stop     chan struct{}
	done     chan struct{}

	mu     sync.RWMutex // guards closed vs. in-flight enqueues
	closed bool

	submitted     atomic.Int64
	batches       atomic.Int64
	batchedDocs   atomic.Int64
	maxBatchSeen  atomic.Int64
	shedQueueFull atomic.Int64
	shedDeadline  atomic.Int64
	fallbacks     atomic.Int64
}

// NewBatcher starts a batcher over dispatch. The caller owns stopping
// it with Close.
func NewBatcher(dispatch Dispatch, opts BatcherOptions) *Batcher {
	b := &Batcher{
		dispatch: dispatch,
		opts:     opts.withDefaults(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	b.queue = make(chan *batchReq, b.opts.QueueDepth)
	go b.run()
	return b
}

// Do submits one document and blocks until its result. A zero
// deadline means none; a deadline in the past (at admission or by
// dispatch time) sheds the request with ErrDeadlineExceeded. When the
// queue is full Do fails immediately with ErrQueueFull instead of
// blocking — admission control, not backpressure.
func (b *Batcher) Do(doc []int32, sweeps int, deadline time.Time) ([]float64, any, error) {
	if !deadline.IsZero() && time.Now().After(deadline) {
		b.shedDeadline.Add(1)
		return nil, nil, ErrDeadlineExceeded
	}
	req := &batchReq{doc: doc, sweeps: sweeps, deadline: deadline, done: make(chan batchOut, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, nil, ErrBatcherClosed
	}
	// Counted before the send: once queued, the collector may batch the
	// request before this goroutine runs again.
	b.submitted.Add(1)
	select {
	case b.queue <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.submitted.Add(-1)
		b.shedQueueFull.Add(1)
		return nil, nil, ErrQueueFull
	}
	out := <-req.done
	return out.theta, out.tag, out.err
}

// QueueLen is the current admission-queue depth (requests admitted,
// not yet picked up by the collector).
func (b *Batcher) QueueLen() int { return len(b.queue) }

// Stats returns the cumulative counters. Submitted is loaded last, so
// a read never shows more batched or queue-shed requests than were
// admitted.
func (b *Batcher) Stats() BatcherStats {
	st := BatcherStats{
		Batches:       b.batches.Load(),
		BatchedDocs:   b.batchedDocs.Load(),
		MaxBatchSeen:  b.maxBatchSeen.Load(),
		ShedQueueFull: b.shedQueueFull.Load(),
		ShedDeadline:  b.shedDeadline.Load(),
		Fallbacks:     b.fallbacks.Load(),
	}
	st.Submitted = b.submitted.Load()
	return st
}

// Close stops admission (further Do calls fail with ErrBatcherClosed),
// completes every request already queued — a drain must answer
// admitted work, not drop it — and waits for the collector to exit.
// Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

// run is the collector goroutine: take the first queued request, fill
// the batch from what is already queued behind it, dispatch, repeat.
// It never waits for company, so a batch holds the requests that
// arrived during the previous dispatch and its size follows the
// arrival rate. On stop it dispatches until the queue is empty
// (everything admitted before Close completes) and exits.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		var first *batchReq
		select {
		case first = <-b.queue:
		case <-b.stop:
			select {
			case first = <-b.queue:
			default:
				return
			}
		}
		b.dispatchBatch(b.fill(first))
	}
}

// fill returns first plus the requests queued behind it, up to
// MaxBatch, without blocking.
func (b *Batcher) fill(first *batchReq) []*batchReq {
	reqs := make([]*batchReq, 1, b.opts.MaxBatch)
	reqs[0] = first
	for len(reqs) < b.opts.MaxBatch {
		select {
		case r := <-b.queue:
			reqs = append(reqs, r)
		default:
			return reqs
		}
	}
	return reqs
}

// dispatchBatch sheds queue-expired requests, dispatches the rest as
// one batch, and distributes the results. A failed multi-doc dispatch
// falls back to per-request dispatches so an invalid document (a
// caller error) cannot fail the requests coalesced next to it.
func (b *Batcher) dispatchBatch(reqs []*batchReq) {
	now := time.Now()
	live := reqs[:0]
	for _, r := range reqs {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			b.shedDeadline.Add(1)
			r.done <- batchOut{err: ErrDeadlineExceeded}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	docs := make([][]int32, len(live))
	sweeps := make([]int, len(live))
	for i, r := range live {
		docs[i] = r.doc
		sweeps[i] = r.sweeps
	}
	b.batches.Add(1)
	b.batchedDocs.Add(int64(len(live)))
	for {
		m := b.maxBatchSeen.Load()
		if int64(len(live)) <= m || b.maxBatchSeen.CompareAndSwap(m, int64(len(live))) {
			break
		}
	}
	thetas, tag, err := b.dispatch(docs, sweeps)
	if err != nil || len(thetas) != len(live) {
		if len(live) == 1 {
			if err == nil {
				err = errors.New("infer: dispatch returned wrong result count")
			}
			live[0].done <- batchOut{err: err}
			return
		}
		for _, r := range live {
			b.fallbacks.Add(1)
			th, tg, e := b.dispatch([][]int32{r.doc}, []int{r.sweeps})
			if e == nil && len(th) != 1 {
				e = errors.New("infer: dispatch returned wrong result count")
			}
			if e != nil {
				r.done <- batchOut{err: e}
				continue
			}
			r.done <- batchOut{theta: th[0], tag: tg}
		}
		return
	}
	for i, r := range live {
		r.done <- batchOut{theta: thetas[i], tag: tag}
	}
}
