// The coordinator process. It owns everything the workers must not:
// the corpus, the partitions and the training driver. A Coordinator is
// a sampler.Sharded that train.Run drives as it drives any in-process
// sampler — evaluation, checkpoints, retention and resume are
// train.Run's. Iterate is one pass across the members of the current
// epoch. The state lives in a "shadow" in-process Distributed sampler
// that is brought up to date only when it is read, at most once per
// iteration: every member uploads its shard, and the uploads flow into
// the shadow's RestoreShards (the validate-then-commit gate checkpoint
// restore uses).
//
// Membership is epoch-based, and every epoch starts at RestoreShards:
// the shadow is restored at the current worker count (elastic resume,
// exercised by internal/cluster's tests) and each member is assigned
// its shard at the next pass. A member dying mid-pass, or an upload
// failing validation, loses the passes since the newest checkpoint: the
// coordinator reports the loss (sampler.Rewinder) and train.Run rewinds
// to that checkpoint. A worker joining is admitted at the next pass
// boundary, by restoring the shadow's current shards at the new count.
// A coordinator restart resumes the newest checkpoint, as -resume does;
// the workers re-register on their own.
package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// CoordinatorConfig configures NewCoordinator. The training schedule —
// iterations, evaluation, checkpoints, retention — is the train.Options
// that Serve is given.
type CoordinatorConfig struct {
	// Addr is the listen address (host:port; port 0 picks one).
	Addr string
	// Corpus is the training corpus; workers never see it.
	Corpus *corpus.Corpus
	// Cfg is the sampler configuration (M >= 1; Threads is ignored —
	// the worker count is the live membership).
	Cfg sampler.Config
	// MinWorkers is the membership an epoch needs to form (default 1).
	MinWorkers int
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
}

func (cc CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if cc.Corpus == nil {
		return cc, errors.New("dist: coordinator needs a corpus")
	}
	cc.MinWorkers = orDefault(cc.MinWorkers, 1)
	cc.HeartbeatInterval = orDefault(cc.HeartbeatInterval, time.Second)
	cc.HeartbeatTimeout = orDefault(cc.HeartbeatTimeout, 30*time.Second)
	cc.ReadTimeout = orDefault(cc.ReadTimeout, 60*time.Second)
	cc.WriteTimeout = orDefault(cc.WriteTimeout, 30*time.Second)
	if cc.Logf == nil {
		cc.Logf = func(string, ...any) {}
	}
	return cc, nil
}

// orDefault returns v when it is positive, else def: a configuration
// field left at zero (or set below it) takes its default.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// errMembership ends an epoch whose membership changed; errLost is
// every state read's answer once passes are lost.
var (
	errMembership = errors.New("dist: membership changed")
	errLost       = errors.New("dist: the passes since the newest checkpoint are lost")
)

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
// NewCoordinator, run with Serve, which trains it through train.Run.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	events  chan any
	quit    chan struct{}
	writers sync.WaitGroup

	// Driver-owned state: one goroutine at a time — Serve's, or a
	// checkpoint shard writer holding mu while it syncs.
	ctx        context.Context
	hb         *time.Ticker
	conns      map[string]*wconn
	epoch      int
	members    []string // the epoch's workers by slot; nil between epochs
	memberLost bool
	joined     bool

	// shadow holds the state after iter iterations once fresh (synced,
	// or just restored); ck is the next pass's global count vector. lost
	// reports passes lost since the last RestoreShards. mu serializes
	// sync: of the checkpoint writer's concurrent ShardTo calls, the
	// first pumps events while the rest wait for the shadow it fills.
	mu     sync.Mutex
	shadow *cluster.Distributed
	iter   int
	ck     []int32
	fresh  bool
	lost   bool
}

// NewCoordinator validates the configuration, builds the initial
// state, and starts listening. Serve runs the cluster.
func NewCoordinator(cc CoordinatorConfig) (*Coordinator, error) {
	cc, err := cc.withDefaults()
	if err != nil {
		return nil, err
	}
	shadow, err := cluster.NewDistributed(cc.Corpus, cc.Cfg, cc.MinWorkers)
	if err != nil {
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
		shadow: shadow,
		ck:     shadow.GlobalCounts(),
		fresh:  true,
	}, nil
}

// Addr returns the coordinator's bound listen address (useful with
// port 0).
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Serve accepts workers, waits for MinWorkers, trains the coordinator
// through train.Run on the schedule opts gives, then tells the workers
// to shut down. opts.CheckpointDir is required: it is the recovery log.
// With no opts.ResumeFrom, the newest checkpoint in it is resumed, so a
// restarted coordinator continues its run from the same arguments.
// ctx is the run's Stop: when it is done, the run stops as train.Run's
// Stop stops it. opts.Progress sees every event after the coordinator
// has logged it.
func (co *Coordinator) Serve(ctx context.Context, opts train.Options) (train.Result, error) {
	defer co.ln.Close()
	defer close(co.quit)
	defer co.closeAll()
	if opts.CheckpointDir == "" {
		return train.Result{}, errors.New("dist: coordinator needs a checkpoint directory (it is the recovery log)")
	}
	go co.acceptLoop()
	co.ctx, co.hb = ctx, time.NewTicker(co.cfg.HeartbeatInterval)
	defer co.hb.Stop()
	if err := co.waitForWorkers(); err != nil {
		return train.Result{}, err
	}
	if opts.ResumeFrom == nil {
		ck, err := train.Load(opts.CheckpointDir)
		switch {
		case err == nil:
			co.logf("resume from iteration %d: %d saved shards across %d workers", ck.Iter, len(ck.ShardFiles), len(co.conns))
			opts.ResumeFrom = ck
		case !errors.Is(err, train.ErrNoCheckpoint):
			return train.Result{}, err
		}
	}
	progress := opts.Progress
	opts.Stop, opts.Progress = ctx.Done(), func(ev train.Event) {
		if ev.Checkpoint != "" && ev.Eval != nil {
			co.logf("iteration %d: log likelihood %.1f, checkpoint committed", ev.Iter, ev.Eval.LogLik)
		}
		if progress != nil {
			progress(ev)
		}
	}
	res, err := train.Run(co, co.cfg.Corpus, co.cfg.Cfg, opts)
	if err != nil || !res.Completed {
		return res, err
	}
	co.logf("training complete at iteration %d; shutting down workers", res.Iter)
	for _, w := range co.conns {
		co.send(w, MsgShutdown, nil)
	}
	return res, nil
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
func (co *Coordinator) step() (*evMsg, error) {
	select {
	case <-co.ctx.Done():
		return nil, co.ctx.Err()
	case <-co.hb.C:
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
		return co.handle(ev), nil
	}
}

// handle services one event from the event channel and returns it when
// it is a message the caller's wait loop cares about.
func (co *Coordinator) handle(ev any) *evMsg {
	switch e := ev.(type) {
	case evHello:
		co.onHello(e)
	case evDead:
		co.onDead(e)
	case evMsg:
		w := co.conns[e.h.id]
		if w == nil || w.h != e.h {
			return nil // frame from a superseded connection
		}
		w.lastSeen = time.Now()
		if e.typ != MsgPong {
			return &e
		}
	}
	return nil
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
		co.dropConn(w)
	}
	co.writers.Wait()
}

// waitForWorkers pumps events until MinWorkers are registered.
func (co *Coordinator) waitForWorkers() error {
	logged := -1
	for len(co.conns) < co.cfg.MinWorkers {
		if n := len(co.conns); n != logged {
			co.logf("forming: %d/%d workers", n, co.cfg.MinWorkers)
			logged = n
		}
		if _, err := co.step(); err != nil {
			return err
		}
	}
	return nil
}

// Name implements sampler.Sampler: the shadow's, so the coordinator's
// checkpoints and those of either in-process WarpLDA sampler resume in
// one another.
func (co *Coordinator) Name() string { return co.shadow.Name() }

// NumShards implements sampler.Sharded: the shadow's worker count.
func (co *Coordinator) NumShards() int { return co.shadow.NumShards() }

// Lost implements sampler.Rewinder.
func (co *Coordinator) Lost() bool { return co.lost }

// Assignments implements sampler.Sampler from the synced shadow. After
// a loss they are the stale shadow's, which the trainer discards.
func (co *Coordinator) Assignments() [][]int32 {
	co.sync()
	return co.shadow.Assignments()
}

// GlobalCounts returns the synced shadow's global count vector.
func (co *Coordinator) GlobalCounts() []int32 {
	co.sync()
	return co.shadow.GlobalCounts()
}

// ShardTo implements sampler.Sharded from the synced shadow. The
// checkpoint writer calls it for every shard at once; the first call
// syncs and the rest find the shadow fresh.
func (co *Coordinator) ShardTo(i int, w io.Writer) error {
	if err := co.sync(); err != nil {
		return err
	}
	return co.shadow.ShardTo(i, w)
}

// RestoreShards implements sampler.Sharded, and is where every epoch
// starts — a resume, a rewind, a join: the shadow takes the union of
// the shards at the current worker count (at least MinWorkers), the
// current epoch ends, and the next pass forms one over the shadow's
// state. On error nothing changes.
func (co *Coordinator) RestoreShards(iter int, shards []io.Reader) error {
	d := co.shadow
	if p := max(len(co.conns), co.cfg.MinWorkers); p != d.NumShards() {
		var err error
		if d, err = cluster.NewDistributed(co.cfg.Corpus, co.cfg.Cfg, p); err != nil {
			return err
		}
	}
	if err := d.RestoreShards(iter, shards); err != nil {
		return err
	}
	co.abortEpoch()
	co.shadow, co.iter, co.ck = d, iter, d.GlobalCounts()
	co.fresh, co.lost = true, false
	return nil
}

// Iterate implements sampler.Sampler: one pass across the epoch's
// members, forming the epoch first when it needs to be. A pass that
// cannot finish is lost.
func (co *Coordinator) Iterate() {
	if err := co.pass(); err != nil && !co.lost {
		co.lose(err)
	}
}

func (co *Coordinator) pass() error {
	if co.lost {
		return errLost
	}
	if err := co.form(); err != nil {
		return err
	}
	co.broadcast(MsgPassStart, (&PassStart{Epoch: co.epoch, Iter: co.iter, CK: co.ck}).Encode())
	for _, phase := range []int{PhaseWord, PhaseDoc} {
		if err := co.phaseBarrier(phase); err != nil {
			return err
		}
		co.broadcast(MsgBarrier, (&Sync{Epoch: co.epoch, Iter: co.iter, Phase: phase}).Encode())
	}
	ck, err := co.collectPassEnds()
	if err != nil {
		return err
	}
	co.ck, co.iter, co.fresh = ck, co.iter+1, false
	return nil
}

// form readies an epoch of the registered workers before a pass. It
// first services the events already queued (any message among them is
// stale), so that no epoch forms around a worker whose death is known.
// Joined workers are admitted from the members' current state (between
// epochs the shadow is fresh, and sync does nothing); once MinWorkers
// are registered, the shadow is restored at their count if it differs,
// and every member gets its slot's shard, the routing tables and its
// slabs' layout.
func (co *Coordinator) form() error {
	for len(co.events) > 0 {
		co.handle(<-co.events)
	}
	if co.members != nil && !co.joined {
		return nil
	}
	if err := co.sync(); err != nil {
		return err
	}
	if err := co.waitForWorkers(); err != nil {
		return err
	}
	if len(co.conns) != co.shadow.NumShards() {
		shards := make([]io.Reader, co.shadow.NumShards())
		for i := range shards {
			var b bytes.Buffer
			if err := co.shadow.ShardTo(i, &b); err != nil {
				return err
			}
			shards[i] = &b
		}
		if err := co.RestoreShards(co.iter, shards); err != nil {
			return err
		}
	}
	co.abortEpoch()
	co.epoch++
	co.members = make([]string, 0, len(co.conns))
	for id := range co.conns {
		co.members = append(co.members, id)
	}
	sort.Strings(co.members)
	co.memberLost, co.joined = false, false
	p := len(co.members)
	co.logf("epoch %d: %d workers, resuming at iteration %d", co.epoch, p, co.iter)
	rows, cols := co.shadow.Partitions()
	blockTokens := cluster.BlockTokens(co.cfg.Corpus.NumTokens(), p)
	for i, id := range co.members {
		var sb bytes.Buffer
		if err := co.shadow.ShardTo(i, &sb); err != nil {
			return err
		}
		a := &Assign{
			Epoch: co.epoch, Slot: i, P: p, Iter: co.iter,
			K: co.cfg.Cfg.K, Alpha: co.cfg.Cfg.Alpha, Beta: co.cfg.Cfg.Beta, AlphaVec: co.cfg.Cfg.AlphaVec,
			M: co.cfg.Cfg.M, Seed: co.cfg.Cfg.Seed,
			V: co.cfg.Corpus.V, NumDocs: co.cfg.Corpus.NumDocs(),
			NumTokens: co.cfg.Corpus.NumTokens(), BlockTokens: blockTokens,
			Rows: rows, Cols: cols, Shard: sb.Bytes(),
		}
		a.WordCounts, a.DocCounts = co.shadow.Counts(i)
		w := co.conns[id]
		w.member = i
		co.send(w, MsgAssign, a.Encode())
	}
	return nil
}

// sync brings the shadow up to date with the members' state, at most
// once per iteration: every member uploads its shard, and the uploads
// go through the shadow's RestoreShards. A failed upload or a lost
// member loses the passes since the newest checkpoint.
func (co *Coordinator) sync() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.lost {
		return errLost
	}
	if co.fresh {
		return nil
	}
	co.broadcast(MsgShardReq, (&Sync{Epoch: co.epoch, Iter: co.iter}).Encode())
	got, err := co.collect(MsgShardState, func(p []byte) (int, bool) {
		st, err := DecodeShardState(p)
		if err != nil || st.Epoch != co.epoch || st.Iter != co.iter {
			return 0, false
		}
		return st.From, true
	}, nil)
	readers := make([]io.Reader, len(got))
	for i, p := range got {
		st, _ := DecodeShardState(p)
		readers[i] = bytes.NewReader(st.Shard)
	}
	if err == nil {
		err = co.shadow.RestoreShards(co.iter, readers)
	}
	if err != nil {
		co.lose(err)
		return err
	}
	co.fresh = true
	return nil
}

// lose ends the epoch on a lost pass or upload: the members discard
// their state, and the trainer rewinds to the newest checkpoint.
func (co *Coordinator) lose(err error) {
	co.logf("epoch %d aborted at iteration %d (%v); reforming from last checkpoint", co.epoch, co.iter, err)
	co.abortEpoch()
	co.lost = true
}

// abortEpoch tells the members to discard epoch state.
func (co *Coordinator) abortEpoch() {
	ab := (&Sync{Epoch: co.epoch}).Encode()
	for _, w := range co.conns {
		if w.member >= 0 {
			co.send(w, MsgAbort, ab)
			w.member = -1
		}
	}
	co.members = nil
}

// broadcast sends one frame to every member still connected.
func (co *Coordinator) broadcast(typ MsgType, payload []byte) {
	for _, id := range co.members {
		if w := co.conns[id]; w != nil && w.member >= 0 {
			co.send(w, typ, payload)
		}
	}
}

// collect pumps events until it has one typ message from every member
// and returns their payloads by slot. from decodes a payload and returns
// its sender's slot, or false for stale or malformed traffic, which is
// dropped; every other message goes to other when it is set.
func (co *Coordinator) collect(typ MsgType, from func([]byte) (int, bool), other func(*evMsg)) ([][]byte, error) {
	got := make([][]byte, len(co.members))
	for left := len(got); left > 0 && !co.memberLost; {
		ev, err := co.step()
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
	if co.memberLost {
		return nil, errMembership
	}
	return got, nil
}

// phaseBarrier relays token blocks between workers until every member
// reports the phase done. Blocks are relayed from their raw payloads —
// the coordinator decodes only the routing header.
func (co *Coordinator) phaseBarrier(phase int) error {
	_, err := co.collect(MsgPhaseDone, func(p []byte) (int, bool) {
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
		if err != nil || h.Epoch != co.epoch || h.Phase != phase || h.To < 0 || h.To >= len(co.members) {
			return // stale or malformed; the phase barrier will catch real loss
		}
		if w := co.conns[co.members[h.To]]; w != nil {
			co.send(w, MsgBlock, ev.payload)
		}
	})
	return err
}

// collectPassEnds gathers every member's ck delta and aggregates the
// next pass's global count vector (the once-per-pass allreduce).
func (co *Coordinator) collectPassEnds() ([]int32, error) {
	k := co.cfg.Cfg.K
	got, err := co.collect(MsgPassEnd, func(p []byte) (int, bool) {
		pe, err := DecodePassEnd(p, k)
		if err != nil || pe.Epoch != co.epoch || pe.Iter != co.iter {
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
