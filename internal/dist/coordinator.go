// The coordinator process. It owns everything the workers must not:
// the corpus, the partitions, the evaluation loop, and the sharded
// checkpoint directory. Training state lives in a "shadow" in-process
// Distributed sampler that is only touched at sync points: worker
// uploads flow into RestoreShards (the same validate-then-commit gate
// checkpoint restore uses), the log likelihood is evaluated, and the
// checkpoint is written with the same WriteSharded path the
// single-process trainer uses.
//
// Membership is epoch-based. Every epoch starts from the last committed
// checkpoint: the coordinator restores it into a fresh shadow sized to
// the CURRENT worker count (elastic resume, exercised by
// internal/cluster's tests) and distributes the resulting shards. A worker dying mid-pass aborts the epoch; survivors
// discard state and the next epoch reforms from the checkpoint. A
// worker joining requests the same thing at the next sync point. A
// coordinator restart IS an epoch start: workers re-register and the
// first epoch reforms from disk. Fault path and restart path are the
// same tested code.
package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// Addr is the listen address (host:port; port 0 picks one).
	Addr string
	// Corpus is the training corpus; workers never see it.
	Corpus *corpus.Corpus
	// Cfg is the sampler configuration (M >= 1; Threads is ignored —
	// the worker count is the live membership).
	Cfg sampler.Config
	// Iters is the total number of training iterations.
	Iters int
	// MinWorkers is the membership an epoch needs to form (default 1).
	MinWorkers int
	// CheckpointDir receives the sharded checkpoints every sync point
	// commits; it is also where every epoch resumes from. Required.
	CheckpointDir string
	// CheckpointEvery is the sync-point cadence in iterations
	// (default 5). Each sync collects worker shards, evaluates the log
	// likelihood, and commits a checkpoint.
	CheckpointEvery int
	// CheckpointKeep is the keep-last-N retention (default 3).
	CheckpointKeep int
	// HeartbeatInterval is the ping cadence (default 1s);
	// HeartbeatTimeout the silence after which a worker is declared dead
	// (default 30s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// ReadTimeout is the per-frame read deadline on worker connections
	// (default 60s); WriteTimeout bounds both a frame write and how long
	// a full send queue may stall the driver (default 30s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// OnSync, when non-nil, is called after every committed checkpoint
	// with the synced iteration and the coordinator's shadow sampler
	// (valid for the duration of the call only — the driver goroutine
	// blocks until it returns, so keep it short; snapshot what you need
	// and return). It is the hook serving-side publishers use to emit a
	// model or WARPDLT delta per sync point.
	OnSync func(iter int, s sampler.Sampler)
}

func (cc CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if cc.Corpus == nil {
		return cc, errors.New("dist: coordinator needs a corpus")
	}
	if err := cc.Cfg.Validate(); err != nil {
		return cc, err
	}
	if cc.Cfg.M < 1 {
		return cc, fmt.Errorf("dist: M = %d, want >= 1", cc.Cfg.M)
	}
	if cc.Iters < 1 {
		return cc, fmt.Errorf("dist: %d iterations", cc.Iters)
	}
	if cc.CheckpointDir == "" {
		return cc, errors.New("dist: coordinator needs a checkpoint directory (it is the recovery log)")
	}
	if cc.MinWorkers < 1 {
		cc.MinWorkers = 1
	}
	if cc.CheckpointEvery < 1 {
		cc.CheckpointEvery = 5
	}
	if cc.CheckpointKeep < 1 {
		cc.CheckpointKeep = 3
	}
	if cc.HeartbeatInterval <= 0 {
		cc.HeartbeatInterval = time.Second
	}
	if cc.HeartbeatTimeout <= 0 {
		cc.HeartbeatTimeout = 30 * time.Second
	}
	if cc.ReadTimeout <= 0 {
		cc.ReadTimeout = 60 * time.Second
	}
	if cc.WriteTimeout <= 0 {
		cc.WriteTimeout = 30 * time.Second
	}
	if cc.Logf == nil {
		cc.Logf = func(string, ...any) {}
	}
	return cc, nil
}

// errMembership aborts an epoch whose membership changed; the serve
// loop reforms from the last committed checkpoint.
var errMembership = errors.New("dist: membership changed")

// connHandle identifies one accepted connection across goroutines; the
// pointer itself disambiguates a reconnected worker from its dead
// predecessor with the same ID.
type connHandle struct {
	id   string
	conn net.Conn
}

type evHello struct{ h *connHandle }
type evDead struct {
	h   *connHandle
	err error
}
type evMsg struct {
	h       *connHandle
	typ     MsgType
	payload []byte
}

type outFrame struct {
	typ     MsgType
	payload []byte
}

// wconn is the driver's view of one registered worker.
type wconn struct {
	h        *connHandle
	out      chan outFrame
	closed   bool
	member   int // slot in the current epoch, -1 when not a member
	lastSeen time.Time
}

// Coordinator runs the distributed training driver. Build with
// NewCoordinator, run with Serve.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	events  chan any
	quit    chan struct{}
	writers sync.WaitGroup

	// Driver-owned state (single goroutine).
	conns      map[string]*wconn
	epoch      int
	memberLost bool
	joined     bool
	trace      sampler.Run
	elapsed    time.Duration
	fp         uint32
}

// NewCoordinator validates the configuration, creates the checkpoint
// directory, and starts listening. Serve runs the cluster.
func NewCoordinator(cc CoordinatorConfig) (*Coordinator, error) {
	cc, err := cc.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cc.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cc.Addr)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:    cc,
		ln:     ln,
		events: make(chan any, 4096),
		quit:   make(chan struct{}),
		conns:  make(map[string]*wconn),
		fp:     train.CorpusFingerprint(cc.Corpus),
	}, nil
}

// Addr returns the coordinator's bound listen address (useful with
// port 0).
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Serve accepts workers and drives training to completion, reforming
// the cluster from the last committed checkpoint on every membership
// change. It returns the run's evaluation trace.
func (co *Coordinator) Serve(ctx context.Context) (sampler.Run, error) {
	defer co.ln.Close()
	defer close(co.quit)
	defer co.closeAll()
	go co.acceptLoop()
	hb := time.NewTicker(co.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		if err := co.waitForWorkers(ctx, hb); err != nil {
			return co.trace, err
		}
		done, err := co.runEpoch(ctx, hb)
		switch {
		case err == nil && done:
			co.logf("training complete at iteration %d; shutting down workers", co.cfg.Iters)
			for _, w := range co.conns {
				co.send(w, MsgShutdown, nil)
			}
			return co.trace, nil
		case err == nil:
			co.logf("reforming to admit joined workers")
		case errors.Is(err, errMembership):
			co.logf("epoch %d aborted (membership changed); reforming from last checkpoint", co.epoch)
		default:
			return co.trace, err
		}
	}
}

func (co *Coordinator) logf(format string, args ...any) { co.cfg.Logf("dist: "+format, args...) }

// acceptLoop hands each connection to a handshake-then-read goroutine.
func (co *Coordinator) acceptLoop() {
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return
		}
		go co.readLoop(c)
	}
}

// readLoop performs the handshake and then pumps frames into the event
// channel until the connection dies.
func (co *Coordinator) readLoop(c net.Conn) {
	br := bufio.NewReaderSize(c, 1<<16)
	c.SetReadDeadline(time.Now().Add(co.cfg.ReadTimeout))
	typ, payload, err := ReadFrame(br)
	if err != nil || typ != MsgHello {
		c.Close()
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		c.Close()
		return
	}
	if hello.Version != ProtoVersion {
		co.logf("worker %s: refused: it speaks protocol revision %d, this coordinator %d", hello.ID, hello.Version, ProtoVersion)
		c.Close()
		return
	}
	h := &connHandle{id: hello.ID, conn: c}
	if !co.post(evHello{h}) {
		c.Close()
		return
	}
	for {
		c.SetReadDeadline(time.Now().Add(co.cfg.ReadTimeout))
		typ, payload, err := ReadFrame(br)
		if err != nil {
			co.post(evDead{h, err})
			return
		}
		if !co.post(evMsg{h, typ, payload}) {
			return
		}
	}
}

// post delivers an event unless the coordinator is shutting down.
func (co *Coordinator) post(ev any) bool {
	select {
	case co.events <- ev:
		return true
	case <-co.quit:
		return false
	}
}

// writeLoop drains a worker's send queue onto its connection, flushing
// whenever the queue empties (write coalescing). On error it closes the
// connection — the read loop then reports the death — and discards the
// rest of the queue.
func (co *Coordinator) writeLoop(c net.Conn, out chan outFrame) {
	bw := bufio.NewWriterSize(c, 1<<16)
	failed := false
	for f := range out {
		if failed {
			continue
		}
		c.SetWriteDeadline(time.Now().Add(co.cfg.WriteTimeout))
		if err := WriteFrame(bw, f.typ, f.payload); err != nil {
			failed = true
			c.Close()
			continue
		}
		if len(out) == 0 {
			if err := bw.Flush(); err != nil {
				failed = true
				c.Close()
			}
		}
	}
	if !failed {
		bw.Flush()
	}
	c.Close()
}

// send enqueues a frame to a worker, blocking at most WriteTimeout on a
// full queue before declaring the worker dead.
func (co *Coordinator) send(w *wconn, typ MsgType, payload []byte) {
	if w.closed {
		return
	}
	select {
	case w.out <- outFrame{typ, payload}:
		return
	default:
	}
	select {
	case w.out <- outFrame{typ, payload}:
	case <-time.After(co.cfg.WriteTimeout):
		co.logf("worker %s: send queue stalled for %v; dropping connection", w.h.id, co.cfg.WriteTimeout)
		w.h.conn.Close() // read loop reports the death
	}
}

// step services exactly one event — registration, death, heartbeat tick
// — and returns the message events the caller's wait loop cares about.
// It returns (nil, nil) for plumbing events.
func (co *Coordinator) step(ctx context.Context, hb *time.Ticker) (*evMsg, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-hb.C:
		now := time.Now()
		for id, w := range co.conns {
			if now.Sub(w.lastSeen) > co.cfg.HeartbeatTimeout {
				co.logf("worker %s: no traffic for %v; declaring dead", id, co.cfg.HeartbeatTimeout)
				w.h.conn.Close()
				continue
			}
			co.send(w, MsgPing, nil)
		}
		return nil, nil
	case ev := <-co.events:
		switch e := ev.(type) {
		case evHello:
			co.onHello(e)
		case evDead:
			co.onDead(e)
		case evMsg:
			w := co.conns[e.h.id]
			if w == nil || w.h != e.h {
				return nil, nil // frame from a superseded connection
			}
			w.lastSeen = time.Now()
			if e.typ == MsgPong {
				return nil, nil
			}
			return &e, nil
		}
		return nil, nil
	}
}

func (co *Coordinator) onHello(e evHello) {
	if old, ok := co.conns[e.h.id]; ok {
		// Same ID reconnecting: the previous incarnation is dead even if
		// its socket has not noticed yet. Idempotent re-registration.
		co.logf("worker %s: re-registered, dropping previous connection", e.h.id)
		old.h.conn.Close()
		co.dropConn(old)
	} else {
		co.logf("worker %s: registered", e.h.id)
	}
	w := &wconn{h: e.h, out: make(chan outFrame, 4096), member: -1, lastSeen: time.Now()}
	co.conns[e.h.id] = w
	co.writers.Add(1)
	go func() {
		defer co.writers.Done()
		co.writeLoop(e.h.conn, w.out)
	}()
	co.send(w, MsgWelcome, nil)
	co.joined = true
}

func (co *Coordinator) onDead(e evDead) {
	w := co.conns[e.h.id]
	if w == nil || w.h != e.h {
		return // a superseded connection dying late
	}
	co.logf("worker %s: connection lost: %v", e.h.id, e.err)
	delete(co.conns, e.h.id)
	co.dropConn(w)
}

// dropConn releases a wconn the driver no longer tracks.
func (co *Coordinator) dropConn(w *wconn) {
	if !w.closed {
		w.closed = true
		close(w.out)
	}
	if w.member >= 0 {
		co.memberLost = true
	}
}

// closeAll releases every connection on Serve exit and waits for the
// writer goroutines to flush queued frames (the final Shutdown
// broadcast) before the process can move on — a worker must see the
// Shutdown frame, not a bare EOF, or it will keep re-registering.
func (co *Coordinator) closeAll() {
	for id, w := range co.conns {
		delete(co.conns, id)
		if !w.closed {
			w.closed = true
			close(w.out)
		}
	}
	co.writers.Wait()
}

// waitForWorkers pumps events until MinWorkers are registered, then
// clears the membership flags for the next epoch.
func (co *Coordinator) waitForWorkers(ctx context.Context, hb *time.Ticker) error {
	logged := -1
	for len(co.conns) < co.cfg.MinWorkers {
		if n := len(co.conns); n != logged {
			co.logf("forming: %d/%d workers", n, co.cfg.MinWorkers)
			logged = n
		}
		if _, err := co.step(ctx, hb); err != nil {
			return err
		}
	}
	co.memberLost, co.joined = false, false
	return nil
}

// runEpoch forms one epoch over the current membership and trains until
// the iteration budget, a membership change, or an error. It returns
// done=true when training reached Iters, (false, nil) to request a
// reform that admits joined workers, or errMembership after an abort.
func (co *Coordinator) runEpoch(ctx context.Context, hb *time.Ticker) (done bool, err error) {
	co.epoch++
	members := make([]string, 0, len(co.conns))
	for id, w := range co.conns {
		members = append(members, id)
		w.member = -1
	}
	sort.Strings(members)
	p := len(members)
	for i, id := range members {
		co.conns[id].member = i
	}
	shadow, startIter, err := co.loadOrInit(p)
	if err != nil {
		return false, err
	}
	if startIter >= co.cfg.Iters {
		return true, nil
	}
	co.logf("epoch %d: %d workers, resuming at iteration %d/%d", co.epoch, p, startIter, co.cfg.Iters)

	// Distribute: every worker gets its slot's shard plus the routing
	// tables and its slabs' layout, as of the restored state.
	rows, cols := shadow.Partitions()
	blockTokens := cluster.BlockTokens(co.cfg.Corpus.NumTokens(), p)
	for i, id := range members {
		var sb bytes.Buffer
		if err := shadow.ShardTo(i, &sb); err != nil {
			return false, err
		}
		a := &Assign{
			Epoch: co.epoch, Slot: i, P: p, Iter: startIter,
			K: co.cfg.Cfg.K, Alpha: co.cfg.Cfg.Alpha, Beta: co.cfg.Cfg.Beta, AlphaVec: co.cfg.Cfg.AlphaVec,
			M: co.cfg.Cfg.M, Seed: co.cfg.Cfg.Seed,
			V: co.cfg.Corpus.V, NumDocs: co.cfg.Corpus.NumDocs(),
			NumTokens: co.cfg.Corpus.NumTokens(), BlockTokens: blockTokens,
			Rows: rows, Cols: cols, Shard: sb.Bytes(),
		}
		a.WordCounts, a.DocCounts = shadow.Counts(i)
		co.send(co.conns[id], MsgAssign, a.Encode())
	}

	ck := shadow.GlobalCounts()
	for iter := startIter; iter < co.cfg.Iters; {
		passStart := time.Now()
		ps := (&PassStart{Epoch: co.epoch, Iter: iter, CK: ck}).Encode()
		for _, id := range members {
			if w := co.conns[id]; w != nil {
				co.send(w, MsgPassStart, ps)
			}
		}
		for _, phase := range []int{PhaseWord, PhaseDoc} {
			if err := co.phaseBarrier(ctx, hb, members, iter, phase); err != nil {
				return false, err
			}
			bar := (&Sync{Epoch: co.epoch, Iter: iter, Phase: phase}).Encode()
			for _, id := range members {
				if w := co.conns[id]; w != nil {
					co.send(w, MsgBarrier, bar)
				}
			}
		}
		newCK, err := co.collectPassEnds(ctx, hb, members, iter)
		if err != nil {
			return false, err
		}
		ck = newCK
		iter++
		co.elapsed += time.Since(passStart)

		if co.joined || iter%co.cfg.CheckpointEvery == 0 || iter == co.cfg.Iters {
			if err := co.syncCheckpoint(ctx, hb, shadow, members, iter); err != nil {
				return false, err
			}
			ck = shadow.GlobalCounts()
			if co.joined && iter < co.cfg.Iters {
				return false, nil // reform to admit the joiners
			}
		}
	}
	return true, nil
}

// abortEpoch tells surviving members to discard epoch state.
func (co *Coordinator) abortEpoch() {
	ab := (&Sync{Epoch: co.epoch}).Encode()
	for _, w := range co.conns {
		if w.member >= 0 {
			co.send(w, MsgAbort, ab)
			w.member = -1
		}
	}
}

// checkMembership aborts the epoch if a member died.
func (co *Coordinator) checkMembership() error {
	if co.memberLost {
		co.abortEpoch()
		return errMembership
	}
	return nil
}

// collect pumps events until it has one typ message from every member
// and returns their payloads by slot. from decodes a payload and returns
// its sender's slot, or false for stale or malformed traffic, which is
// dropped; every other message goes to other when it is set.
func (co *Coordinator) collect(ctx context.Context, hb *time.Ticker, members []string, typ MsgType, from func([]byte) (int, bool), other func(*evMsg)) ([][]byte, error) {
	got := make([][]byte, len(members))
	for left := len(members); left > 0; {
		if err := co.checkMembership(); err != nil {
			return nil, err
		}
		ev, err := co.step(ctx, hb)
		switch {
		case err != nil:
			return nil, err
		case ev == nil:
		case ev.typ == typ:
			if i, ok := from(ev.payload); ok && i >= 0 && i < len(got) && got[i] == nil {
				got[i] = ev.payload
				left--
			}
		case other != nil:
			other(ev)
		}
	}
	return got, co.checkMembership()
}

// phaseBarrier relays token blocks between workers until every member
// reports the phase done. Blocks are relayed from their raw payloads —
// the coordinator decodes only the routing header.
func (co *Coordinator) phaseBarrier(ctx context.Context, hb *time.Ticker, members []string, iter, phase int) error {
	_, err := co.collect(ctx, hb, members, MsgPhaseDone, func(p []byte) (int, bool) {
		sy, err := DecodeSync(p)
		if err != nil || sy.Epoch != co.epoch || sy.Phase != phase {
			return 0, false
		}
		return sy.From, true
	}, func(ev *evMsg) {
		if ev.typ != MsgBlock {
			return
		}
		h, err := DecodeBlockHeader(ev.payload)
		if err != nil || h.Epoch != co.epoch || h.Phase != phase || h.To < 0 || h.To >= len(members) {
			return // stale or malformed; the phase barrier will catch real loss
		}
		if w := co.conns[members[h.To]]; w != nil {
			co.send(w, MsgBlock, ev.payload)
		}
	})
	return err
}

// collectPassEnds gathers every member's ck delta and aggregates the
// next pass's global count vector (the once-per-pass allreduce).
func (co *Coordinator) collectPassEnds(ctx context.Context, hb *time.Ticker, members []string, iter int) ([]int32, error) {
	k := co.cfg.Cfg.K
	got, err := co.collect(ctx, hb, members, MsgPassEnd, func(p []byte) (int, bool) {
		pe, err := DecodePassEnd(p, k)
		if err != nil || pe.Epoch != co.epoch || pe.Iter != iter {
			return 0, false
		}
		return pe.From, true
	}, nil)
	if err != nil {
		return nil, err
	}
	ck := make([]int32, k)
	for _, p := range got {
		pe, _ := DecodePassEnd(p, k)
		for t, v := range pe.CkAcc {
			ck[t] += v
		}
	}
	return ck, nil
}

// syncCheckpoint collects every member's shard, commits it to the
// shadow sampler through the validate-then-commit restore gate,
// evaluates the log likelihood, and writes the sharded checkpoint.
func (co *Coordinator) syncCheckpoint(ctx context.Context, hb *time.Ticker, shadow *cluster.Distributed, members []string, iter int) error {
	req := (&Sync{Epoch: co.epoch, Iter: iter}).Encode()
	for _, id := range members {
		if w := co.conns[id]; w != nil {
			co.send(w, MsgShardReq, req)
		}
	}
	got, err := co.collect(ctx, hb, members, MsgShardState, func(p []byte) (int, bool) {
		st, err := DecodeShardState(p)
		if err != nil || st.Epoch != co.epoch || st.Iter != iter {
			return 0, false
		}
		return st.From, true
	}, nil)
	if err != nil {
		return err
	}
	readers := make([]io.Reader, len(got))
	for i, p := range got {
		st, _ := DecodeShardState(p)
		readers[i] = bytes.NewReader(st.Shard)
	}
	if err := shadow.RestoreShards(iter, readers); err != nil {
		// A worker uploaded state that fails validation: don't trust this
		// epoch; reform from the last committed checkpoint instead.
		co.logf("sync at iteration %d rejected: %v; aborting epoch", iter, err)
		co.abortEpoch()
		return errMembership
	}
	ll := sampler.LogJoint(co.cfg.Corpus, shadow.Assignments(), co.cfg.Cfg)
	tps := 0.0
	if sec := co.elapsed.Seconds(); sec > 0 {
		tps = float64(co.cfg.Corpus.NumTokens()*iter) / sec
	}
	co.trace.Points = append(co.trace.Points, sampler.Point{
		Iter: iter, Elapsed: co.elapsed, LogLik: ll, TokensSec: tps,
	})
	if err := co.writeCheckpoint(shadow, iter); err != nil {
		return err
	}
	co.logf("iteration %d: log likelihood %.1f, checkpoint committed", iter, ll)
	if co.cfg.OnSync != nil {
		co.cfg.OnSync(iter, shadow)
	}
	return nil
}

// loadOrInit builds the epoch's shadow sampler over p workers: restored
// elastically from the newest committed checkpoint when one exists,
// freshly initialized (and immediately checkpointed, so a crash before
// the first sync has a resume point) otherwise.
func (co *Coordinator) loadOrInit(p int) (*cluster.Distributed, int, error) {
	shadow, err := cluster.NewDistributed(co.cfg.Corpus, co.cfg.Cfg, p)
	if err != nil {
		return nil, 0, err
	}
	entries, err := train.ListCheckpoints(co.cfg.CheckpointDir)
	if err != nil {
		return nil, 0, err
	}
	if len(entries) == 0 {
		co.trace = sampler.Run{Sampler: shadow.Name()}
		co.elapsed = 0
		if err := co.writeCheckpoint(shadow, 0); err != nil {
			return nil, 0, err
		}
		co.logf("fresh start: initial checkpoint committed at iteration 0")
		return shadow, 0, nil
	}
	ckpt, err := train.Load(co.cfg.CheckpointDir)
	if err != nil {
		return nil, 0, err
	}
	cfgP := co.cfg.Cfg
	cfgP.Threads = p
	if err := ckpt.Verify(shadow.Name(), co.fp, cfgP); err != nil {
		return nil, 0, err
	}
	if err := ckpt.RestoreInto(shadow); err != nil {
		return nil, 0, err
	}
	co.trace = ckpt.Trace
	co.elapsed = ckpt.Elapsed
	co.logf("resume from iteration %d: %d saved shards across %d workers", ckpt.Iter, len(ckpt.ShardFiles), p)
	return shadow, ckpt.Iter, nil
}

// writeCheckpoint commits the shadow's state as a sharded checkpoint —
// same envelope, format, and retention the single-process trainer uses,
// so `warplda-train -resume` can pick up a coordinator's run and vice
// versa.
func (co *Coordinator) writeCheckpoint(shadow *cluster.Distributed, iter int) error {
	cfgP := co.cfg.Cfg
	cfgP.Threads = shadow.NumShards()
	ckpt := &train.Checkpoint{
		Sampler:     shadow.Name(),
		Cfg:         cfgP,
		Iter:        iter,
		Elapsed:     co.elapsed,
		Trace:       co.trace,
		Fingerprint: co.fp,
	}
	if _, err := ckpt.WriteSharded(co.cfg.CheckpointDir, shadow); err != nil {
		return fmt.Errorf("dist: writing checkpoint at iteration %d: %w", iter, err)
	}
	if err := train.PruneCheckpoints(co.cfg.CheckpointDir, co.cfg.CheckpointKeep, iter); err != nil {
		co.logf("checkpoint retention sweep: %v", err)
	}
	return nil
}
