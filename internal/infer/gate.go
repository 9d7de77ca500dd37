package infer

import (
	"sync/atomic"
	"time"
)

// Gate is the serve path's per-model admission control: every infer
// and query request of a model enters its gate. It enforces two rules:
// a bounded number of admitted-but-unfinished requests per model
// (beyond it, fail fast with ErrQueueFull rather than queueing
// unbounded work), and deadline shedding (a request whose X-Deadline-Ms
// budget passes before a slot frees is dropped with ErrDeadlineExceeded
// instead of consuming engine time the client has given up on).
type Gate struct {
	slots chan struct{}

	admitted     atomic.Int64
	shedFull     atomic.Int64
	shedDeadline atomic.Int64
}

// GateStats are a Gate's cumulative counters, exposed per model on
// GET /v1/stats under "gates".
type GateStats struct {
	// Admitted counts requests that got a slot.
	Admitted int64 `json:"admitted"`
	// Active is the number of slots currently held.
	Active int `json:"active"`
	// ShedQueueFull counts requests refused because every slot was
	// held and the request carried no deadline to wait under;
	// ShedDeadline counts requests whose deadline passed first.
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
}

// NewGate builds a gate admitting at most depth concurrent requests.
// depth <= 0 means 256, matching BatcherOptions.QueueDepth's default.
func NewGate(depth int) *Gate {
	if depth <= 0 {
		depth = 256
	}
	return &Gate{slots: make(chan struct{}, depth)}
}

// Enter admits one request and returns its release function. A zero
// deadline means the caller will not wait: if every slot is held,
// Enter fails immediately with ErrQueueFull. With a deadline, Enter
// waits for a slot until the deadline and then sheds with
// ErrDeadlineExceeded. The release function must be called exactly
// once, after the request's work (including response streaming) is
// done.
func (g *Gate) Enter(deadline time.Time) (release func(), err error) {
	if !deadline.IsZero() && time.Now().After(deadline) {
		g.shedDeadline.Add(1)
		return nil, ErrDeadlineExceeded
	}
	select {
	case g.slots <- struct{}{}:
	default:
		if deadline.IsZero() {
			g.shedFull.Add(1)
			return nil, ErrQueueFull
		}
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case g.slots <- struct{}{}:
		case <-timer.C:
			g.shedDeadline.Add(1)
			return nil, ErrDeadlineExceeded
		}
	}
	g.admitted.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			<-g.slots
		}
	}, nil
}

// Stats returns the gate's cumulative counters.
func (g *Gate) Stats() GateStats {
	return GateStats{
		Admitted:      g.admitted.Load(),
		Active:        len(g.slots),
		ShedQueueFull: g.shedFull.Load(),
		ShedDeadline:  g.shedDeadline.Load(),
	}
}
