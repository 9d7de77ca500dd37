// The worker process runtime. A worker is a pure compute node: it never
// sees the corpus, only its token shard (delivered as a dshd stream in
// Assign), the routing tables and its slabs' layout, and the
// pass-by-pass global counts. It is a cluster.Worker — the Section 5.3
// phase driver the in-process Distributed sampler runs, over
// internal/core's kernels — whose finished off-diagonal blocks ship
// through the coordinator, and it lays out every token it keeps or
// receives as Distributed does, so a live run replays Distributed's
// chain at the same seed and worker count.
//
// Resilience model: the worker retries its connection with bounded
// exponential backoff and re-registers under the same ID (idempotent —
// the coordinator treats a returning ID as the same worker). It keeps
// no durable state: after any disconnect or abort it simply waits for
// a fresh Assign, because every epoch starts from the coordinator's
// restored state. Crash recovery and reconnect are the same code path.
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
	// MaxRetries bounds CONSECUTIVE failed attempts to register — a
	// failed dial, or a connection closed before the coordinator's
	// Welcome — before the worker gives up (default 60; a Welcome resets
	// the count).
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
	wc.DialTimeout = orDefault(wc.DialTimeout, 5*time.Second)
	wc.RetryBackoff = orDefault(wc.RetryBackoff, 200*time.Millisecond)
	wc.MaxBackoff = orDefault(wc.MaxBackoff, 3*time.Second)
	wc.MaxRetries = orDefault(wc.MaxRetries, 60)
	wc.ReadTimeout = orDefault(wc.ReadTimeout, 60*time.Second)
	wc.WriteTimeout = orDefault(wc.WriteTimeout, 30*time.Second)
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
// (returns nil), ctx is cancelled, or MaxRetries consecutive attempts to
// register fail. A session that ends after the coordinator's Welcome —
// network error, coordinator restart, protocol violation — re-registers
// at once; a failed dial or a connection closed before the Welcome (a
// coordinator that refuses this worker's protocol revision) is retried
// with backoff.
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
		welcomed := false
		conn, err := net.DialTimeout("tcp", wc.Coordinator, wc.DialTimeout)
		if err == nil {
			welcomed, err = runSession(ctx, conn, wc)
			conn.Close()
		}
		switch {
		case errors.Is(err, errShutdown):
			wc.Logf("dist: worker %s: run complete, shutting down", wc.ID)
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case welcomed:
			wc.Logf("dist: worker %s: session ended: %v; re-registering", wc.ID, err)
			fails, backoff = 0, wc.RetryBackoff
			continue
		}
		if fails++; fails >= wc.MaxRetries {
			return fmt.Errorf("dist: worker %s: %d consecutive failed registrations: %w", wc.ID, fails, err)
		}
		wc.Logf("dist: worker %s: register: %v (retry %d in %v)", wc.ID, err, fails, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, wc.MaxBackoff)
	}
}

// wsession is one connection's protocol state: the epoch's assignment
// and the live token slabs.
type wsession struct {
	wc   WorkerConfig
	ctx  context.Context
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	a       *Assign
	pass    *core.Pass
	shard   cluster.Slab   // the tokens held, laid out for the phase
	inbox   cluster.Next   // the next phase's slab, filled as tokens arrive
	buckets []cluster.Slab // per owner: finished tokens not shipped yet
	wk      *cluster.Worker
}

// runSession registers and serves one connection; welcomed reports
// whether the coordinator admitted the worker.
func runSession(ctx context.Context, conn net.Conn, wc WorkerConfig) (welcomed bool, err error) {
	s := &wsession{
		wc: wc, ctx: ctx, conn: conn,
		br: bufio.NewReaderSize(conn, 1<<16),
		bw: bufio.NewWriterSize(conn, 1<<16),
	}
	if err := s.send(MsgHello, (&Hello{Version: ProtoVersion, ID: wc.ID}).Encode()); err != nil {
		return false, err
	}
	typ, _, err := s.read()
	if err != nil {
		return false, err
	}
	if typ != MsgWelcome {
		return false, fmt.Errorf("dist: expected welcome, got %s", typ)
	}
	wc.Logf("dist: worker %s: registered with %s", wc.ID, wc.Coordinator)
	for {
		typ, payload, err := s.next()
		switch {
		case err != nil:
		case typ == MsgAssign:
			err = s.handleAssign(payload)
		case typ == MsgPassStart:
			err = s.runPass(payload)
		case typ == MsgShardReq:
			err = s.handleShardReq(payload)
		}
		// Any other frame is stale traffic from a superseded epoch
		// (blocks, barriers) trailing an abort; it is dropped.
		if errors.Is(err, errAborted) {
			s.reset()
		} else if err != nil {
			return true, err
		}
	}
}

// reset discards epoch state; the worker idles until the next Assign.
func (s *wsession) reset() {
	s.a, s.pass, s.wk = nil, nil, nil
	s.shard, s.inbox, s.buckets = cluster.Slab{}, cluster.Next{}, nil
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

// handleAssign adopts a new epoch: DecodeAssign validates the whole
// assignment and lays the shard out, and the worker is rebuilt.
func (s *wsession) handleAssign(payload []byte) error {
	a, err := DecodeAssign(payload)
	if err != nil {
		return err
	}
	s.a, s.shard = a, a.State.Tokens
	s.pass = core.NewPass(sampler.Config{K: a.K, Alpha: a.Alpha, Beta: a.Beta, AlphaVec: a.AlphaVec, M: a.M, Seed: a.Seed}, a.V)
	s.buckets = make([]cluster.Slab, a.P)
	s.wk = cluster.NewWorker(a.Slot, a.K, a.M)
	a.Shard, a.State = nil, nil // adopted: keep no second reference
	s.wc.Logf("dist: worker %s: assigned slot %d/%d at iter %d (epoch %d, %d tokens)",
		s.wc.ID, a.Slot, a.P, a.Iter, a.Epoch, s.shard.Len())
	return nil
}

// handleShardReq uploads the current shard state as a dshd stream.
func (s *wsession) handleShardReq(payload []byte) error {
	sy, err := DecodeSync(payload)
	if err != nil {
		return err
	}
	if s.wk == nil || sy.Epoch != s.a.Epoch {
		return nil // stale request from a superseded epoch
	}
	var b bytes.Buffer
	if err := core.EncodeWorkerState(&b, &core.WorkerState{Index: s.a.Slot, Workers: s.a.P, M: s.a.M, Tokens: s.shard}); err != nil {
		return err
	}
	return s.send(MsgShardState, (&ShardState{Epoch: s.a.Epoch, Iter: sy.Iter, From: s.a.Slot, Shard: b.Bytes()}).Encode())
}

// runPass executes one full training pass: word phase with the
// col→row exchange, doc phase with the row→col exchange, then the
// worker's ck delta.
func (s *wsession) runPass(payload []byte) error {
	if s.wk == nil {
		return fmt.Errorf("dist: pass-start before assign")
	}
	ps, err := DecodePassStart(payload, s.a.K)
	if err != nil {
		return err
	}
	if ps.Epoch != s.a.Epoch {
		return nil // stale
	}
	s.pass.Freeze(ps.CK)
	s.pass.SetIteration(ps.Iter)
	for _, phase := range []int{PhaseWord, PhaseDoc} {
		if err := s.phase(ps.Iter, phase); err != nil {
			return err
		}
	}
	return s.send(MsgPassEnd, (&PassEnd{Epoch: s.a.Epoch, Iter: ps.Iter, From: s.a.Slot, CkAcc: s.wk.CkAcc}).Encode())
}

// phase runs one phase of cluster.Worker's driver over the local shard.
// It puts its own finished tokens straight into the next slab and sends
// each block bound for another worker as soon as it fills (the paper's
// compute/communication overlap), then puts every token of the incoming
// blocks at its offset as it decodes them, until the coordinator's
// barrier, by which every region of the next slab must be full.
func (s *wsession) phase(iter, phase int) error {
	inbox, stride := &s.inbox, s.a.M+1
	inbox.Reset(s.a.Top, 1-phase, s.a.Slot, stride)
	ship := func(o int) error {
		b := &s.buckets[o]
		msg := &Block{Epoch: s.a.Epoch, Iter: iter, Phase: phase, From: s.a.Slot, To: o, DS: b.D, WS: b.W, Payload: b.Data}
		b.Reset()
		return s.send(MsgBlock, msg.Encode())
	}
	err := s.wk.Phase(s.pass, s.a.Top, &s.shard, phase == PhaseWord, func(o int, sh *cluster.Slab, i int) error {
		if o == s.a.Slot {
			_, err := inbox.Put(o, sh, i)
			return err
		}
		b := &s.buckets[o]
		b.D, b.W = append(b.D, sh.D[i]), append(b.W, sh.W[i])
		b.Data = append(b.Data, sh.Data[i*stride:(i+1)*stride]...)
		if b.Len() < s.a.BlockTokens {
			return nil
		}
		return ship(o)
	})
	if err != nil {
		return err
	}
	for o := range s.buckets {
		if s.buckets[o].Len() > 0 {
			if err := ship(o); err != nil {
				return err
			}
		}
	}
	if err := s.send(MsgPhaseDone, (&Sync{Epoch: s.a.Epoch, Iter: iter, Phase: phase, From: s.a.Slot}).Encode()); err != nil {
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
			b, err := DecodeBlock(payload, s.a.K, s.a.M, s.a.NumDocs, s.a.V)
			if err != nil {
				return err
			}
			if b.Epoch != s.a.Epoch || b.Phase != phase {
				continue // stale
			}
			src := cluster.Slab{D: b.DS, W: b.WS, Data: b.Payload}
			for i := range src.D {
				if _, err := inbox.Put(b.From, &src, i); err != nil {
					return err
				}
			}
		case MsgBarrier:
			sy, err := DecodeSync(payload)
			if err != nil {
				return err
			}
			if sy.Epoch != s.a.Epoch || sy.Phase != phase {
				continue // stale
			}
			if err := inbox.Full(); err != nil {
				return err
			}
			s.shard, inbox.Slab = inbox.Slab, s.shard
			return nil
		default:
			return fmt.Errorf("dist: unexpected %s while draining %d-phase blocks", typ, phase)
		}
	}
}
