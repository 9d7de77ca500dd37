// The worker process runtime. A worker is a pure compute node: it never
// sees the corpus, only its token shard (delivered as a dshd stream in
// Assign), the routing tables, and the pass-by-pass global counts. It
// is a cluster.Worker — the Section 5.3 phase driver the in-process
// Distributed sampler runs, over internal/core's kernels — whose
// finished off-diagonal blocks ship through the coordinator.
//
// Resilience model: the worker retries its connection with bounded
// exponential backoff and re-registers under the same ID (idempotent —
// the coordinator treats a returning ID as the same worker). It keeps
// no durable state: after any disconnect or abort it simply waits for
// a fresh Assign, because the coordinator reforms every epoch from the
// last committed checkpoint. Crash recovery and reconnect are the same
// code path.
package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/rng"
	"warplda/internal/sampler"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's host:port.
	Coordinator string
	// ID is the worker's stable identity across reconnects. Required.
	ID string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RetryBackoff is the initial delay between failed connection
	// attempts, doubling up to MaxBackoff (defaults 200ms / 3s).
	RetryBackoff time.Duration
	// MaxBackoff caps the backoff growth.
	MaxBackoff time.Duration
	// MaxRetries bounds CONSECUTIVE failed connection attempts before
	// the worker gives up (default 60; one success resets the count).
	MaxRetries int
	// ReadTimeout is the per-frame read deadline. The coordinator's
	// heartbeats guarantee traffic well inside it; expiry means the
	// coordinator is gone and triggers a reconnect (default 60s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 30s).
	WriteTimeout time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (wc WorkerConfig) withDefaults() (WorkerConfig, error) {
	if wc.Coordinator == "" {
		return wc, errors.New("dist: worker needs a coordinator address")
	}
	if wc.ID == "" {
		return wc, errors.New("dist: worker needs an ID")
	}
	if wc.DialTimeout <= 0 {
		wc.DialTimeout = 5 * time.Second
	}
	if wc.RetryBackoff <= 0 {
		wc.RetryBackoff = 200 * time.Millisecond
	}
	if wc.MaxBackoff <= 0 {
		wc.MaxBackoff = 3 * time.Second
	}
	if wc.MaxRetries <= 0 {
		wc.MaxRetries = 60
	}
	if wc.ReadTimeout <= 0 {
		wc.ReadTimeout = 60 * time.Second
	}
	if wc.WriteTimeout <= 0 {
		wc.WriteTimeout = 30 * time.Second
	}
	if wc.Logf == nil {
		wc.Logf = func(string, ...any) {}
	}
	return wc, nil
}

// errShutdown unwinds a session when the coordinator broadcast a clean
// end of run; errAborted unwinds a pass when the epoch was aborted.
var (
	errShutdown = errors.New("dist: shutdown requested")
	errAborted  = errors.New("dist: epoch aborted")
)

// RunWorker runs one worker until the coordinator broadcasts Shutdown
// (returns nil), ctx is cancelled, or MaxRetries consecutive connection
// attempts fail. Every disconnect — network error, coordinator restart,
// protocol violation — is retried with backoff and a fresh idempotent
// registration.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	wc, err := wc.withDefaults()
	if err != nil {
		return err
	}
	backoff := wc.RetryBackoff
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := net.DialTimeout("tcp", wc.Coordinator, wc.DialTimeout)
		if err != nil {
			fails++
			if fails >= wc.MaxRetries {
				return fmt.Errorf("dist: worker %s: %d consecutive connect failures: %w", wc.ID, fails, err)
			}
			wc.Logf("dist: worker %s: connect: %v (retry %d in %v)", wc.ID, err, fails, backoff)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > wc.MaxBackoff {
				backoff = wc.MaxBackoff
			}
			continue
		}
		fails, backoff = 0, wc.RetryBackoff
		err = runSession(ctx, conn, wc)
		conn.Close()
		switch {
		case errors.Is(err, errShutdown):
			wc.Logf("dist: worker %s: run complete, shutting down", wc.ID)
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			wc.Logf("dist: worker %s: session ended: %v; re-registering", wc.ID, err)
		}
	}
}

// wsession is one connection's protocol state: the epoch assignment
// (slot, topology, config, routing tables) and the live token shard.
type wsession struct {
	wc   WorkerConfig
	ctx  context.Context
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	epoch       int
	slot, p     int
	scfg        sampler.Config
	v, numDocs  int
	blockTokens int
	top         *cluster.Topology
	pass        *core.Pass
	shard, recv cluster.Slab // the tokens held, and the next phase's being received
	wk          *cluster.Worker
}

func runSession(ctx context.Context, conn net.Conn, wc WorkerConfig) error {
	s := &wsession{
		wc: wc, ctx: ctx, conn: conn,
		br: bufio.NewReaderSize(conn, 1<<16),
		bw: bufio.NewWriterSize(conn, 1<<16),
	}
	if err := s.send(MsgHello, (&Hello{Version: ProtoVersion, ID: wc.ID}).Encode()); err != nil {
		return err
	}
	typ, _, err := s.read()
	if err != nil {
		return err
	}
	if typ != MsgWelcome {
		return fmt.Errorf("dist: expected welcome, got %s", typ)
	}
	wc.Logf("dist: worker %s: registered with %s", wc.ID, wc.Coordinator)
	for {
		typ, payload, err := s.next()
		if err != nil {
			if errors.Is(err, errAborted) {
				s.reset()
				continue
			}
			return err
		}
		switch typ {
		case MsgAssign:
			if err := s.handleAssign(payload); err != nil {
				return err
			}
		case MsgPassStart:
			if err := s.runPass(payload); err != nil {
				if errors.Is(err, errAborted) {
					s.reset()
					continue
				}
				return err
			}
		case MsgShardReq:
			if err := s.handleShardReq(payload); err != nil {
				return err
			}
		default:
			// Stale traffic from a superseded epoch (blocks, barriers)
			// can trail an abort; drop it.
		}
	}
}

// reset discards epoch state; the worker idles until the next Assign.
func (s *wsession) reset() {
	s.wk = nil
	s.shard, s.recv = cluster.Slab{}, cluster.Slab{}
	s.top, s.pass = nil, nil
}

// send writes one frame under the write deadline and flushes it.
func (s *wsession) send(typ MsgType, payload []byte) error {
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.wc.WriteTimeout)); err != nil {
		return err
	}
	if err := WriteFrame(s.bw, typ, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

// read returns the next raw frame under the read deadline.
func (s *wsession) read() (MsgType, []byte, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(s.wc.ReadTimeout)); err != nil {
		return 0, nil, err
	}
	return ReadFrame(s.br)
}

// next returns the next frame that is not connection plumbing: pings
// are answered inline, Shutdown and Abort surface as sentinel errors so
// any wait — top-level or mid-pass — unwinds the same way.
func (s *wsession) next() (MsgType, []byte, error) {
	for {
		if err := s.ctx.Err(); err != nil {
			return 0, nil, err
		}
		typ, payload, err := s.read()
		if err != nil {
			return 0, nil, err
		}
		switch typ {
		case MsgPing:
			if err := s.send(MsgPong, payload); err != nil {
				return 0, nil, err
			}
		case MsgShutdown:
			return 0, nil, errShutdown
		case MsgAbort:
			return 0, nil, errAborted
		default:
			return typ, payload, nil
		}
	}
}

// handleAssign adopts a new epoch: decode and validate the shard
// stream, rebuild the worker around the assigned RNG stream, and rank
// the routing tables.
func (s *wsession) handleAssign(payload []byte) error {
	a, err := DecodeAssign(payload)
	if err != nil {
		return err
	}
	st, err := cluster.DecodeWorkerState(bytes.NewReader(a.Shard), a.K, a.M, a.NumDocs, a.V, a.NumTokens)
	if err != nil {
		return err
	}
	if st.Index != a.Slot || st.Workers != a.P {
		return fmt.Errorf("dist: assign for slot %d/%d carries shard %d/%d", a.Slot, a.P, st.Index, st.Workers)
	}
	s.epoch = a.Epoch
	s.slot, s.p = a.Slot, a.P
	s.scfg = sampler.Config{K: a.K, Alpha: a.Alpha, Beta: a.Beta, M: a.M, Seed: a.Seed}
	s.v, s.numDocs = a.V, a.NumDocs
	s.blockTokens = a.BlockTokens
	s.top = cluster.NewTopology(a.Rows, a.Cols, a.P)
	s.pass = core.NewPass(s.scfg, a.V)
	s.shard = st.Tokens
	r := rng.New(a.Seed)
	r.SetState(st.RNGState)
	s.wk = cluster.NewWorker(a.Slot, a.P, a.K, a.M, r)
	s.wc.Logf("dist: worker %s: assigned slot %d/%d at iter %d (epoch %d, %d tokens)",
		s.wc.ID, a.Slot, a.P, a.Iter, a.Epoch, st.Tokens.Len())
	return nil
}

// handleShardReq uploads the current shard state as a dshd stream.
func (s *wsession) handleShardReq(payload []byte) error {
	sy, err := DecodeSync(payload)
	if err != nil {
		return err
	}
	if s.wk == nil || sy.Epoch != s.epoch {
		return nil // stale request from a superseded epoch
	}
	var b bytes.Buffer
	if err := cluster.EncodeWorkerState(&b, &cluster.WorkerState{
		Index:    s.slot,
		Workers:  s.p,
		M:        s.scfg.M,
		RNGState: s.wk.R.State(),
		Tokens:   s.shard,
	}); err != nil {
		return err
	}
	return s.send(MsgShardState, (&ShardState{Epoch: s.epoch, Iter: sy.Iter, From: s.slot, Shard: b.Bytes()}).Encode())
}

// runPass executes one full training pass: word phase with the
// col→row exchange, doc phase with the row→col exchange, then the
// worker's ck delta.
func (s *wsession) runPass(payload []byte) error {
	if s.wk == nil {
		return fmt.Errorf("dist: pass-start before assign")
	}
	ps, err := DecodePassStart(payload, s.scfg.K)
	if err != nil {
		return err
	}
	if ps.Epoch != s.epoch {
		return nil // stale
	}
	s.pass.Freeze(ps.CK)
	for _, phase := range []int{PhaseWord, PhaseDoc} {
		if err := s.phase(ps.Iter, phase); err != nil {
			return err
		}
	}
	return s.send(MsgPassEnd, (&PassEnd{Epoch: s.epoch, Iter: ps.Iter, From: s.slot, CkAcc: s.wk.CkAcc}).Encode())
}

// phase runs one phase of cluster.Worker's driver over the local shard,
// sending each block bound for another worker as soon as it fills (the
// paper's compute/communication overlap) and keeping its own, then
// drains incoming blocks into the next shard until the coordinator's
// barrier.
func (s *wsession) phase(iter, phase int) error {
	recv := &s.recv
	recv.Reset()
	err := s.wk.Phase(s.pass, s.top, &s.shard, phase == PhaseWord, s.blockTokens, func(o int, b *cluster.Slab) error {
		if o == s.slot {
			recv.Append(*b)
			return nil
		}
		msg := &Block{Epoch: s.epoch, Iter: iter, Phase: phase, From: s.slot, To: o, DS: b.D, WS: b.W, Payload: b.Data}
		return s.send(MsgBlock, msg.Encode())
	})
	if err != nil {
		return err
	}
	if err := s.send(MsgPhaseDone, (&Sync{Epoch: s.epoch, Iter: iter, Phase: phase, From: s.slot}).Encode()); err != nil {
		return err
	}
	// Drain incoming blocks until the barrier. The coordinator sends the
	// barrier only after every worker's PhaseDone, and per-connection
	// FIFO ordering guarantees all relayed blocks precede it.
	for {
		typ, payload, err := s.next()
		if err != nil {
			return err
		}
		switch typ {
		case MsgBlock:
			b, err := DecodeBlock(payload, s.scfg.K, s.scfg.M, s.numDocs, s.v)
			if err != nil {
				return err
			}
			if b.Epoch != s.epoch || b.Phase != phase {
				continue // stale
			}
			recv.Append(cluster.Slab{D: b.DS, W: b.WS, Data: b.Payload})
		case MsgBarrier:
			sy, err := DecodeSync(payload)
			if err != nil {
				return err
			}
			if sy.Epoch != s.epoch || sy.Phase != phase {
				continue // stale
			}
			s.shard, s.recv = s.recv, s.shard
			return nil
		default:
			return fmt.Errorf("dist: unexpected %s while draining %d-phase blocks", typ, phase)
		}
	}
}
