// Message payload schemas. Payloads are encoded with the same
// little-endian length-prefixed codec as sampler state (sampler.Enc /
// sampler.Dec); the two shard-bearing messages (Assign, ShardState)
// end with a raw WARPSHRD "dshd" stream — the exact bytes ShardTo
// writes into checkpoint shard files — so shard state needs no second
// serialization format on the wire.
package dist

import (
	"bytes"
	"fmt"
	"math"

	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/sampler"
)

// ProtoVersion is the protocol revision carried in the handshake; a
// coordinator refuses workers speaking a different revision. Revision 2
// added the α vector and the slot's layout counts to Assign; revision 3
// carries dshd\x02 shards, which hold no RNG state (a worker keys its
// draws by the pass's iteration instead).
const ProtoVersion = 3

// Phase identifiers inside Block / PhaseDone / Barrier messages.
const (
	PhaseWord = 0
	PhaseDoc  = 1
)

// Hello is the worker's handshake: its protocol revision and its
// stable identity. Reconnecting with the same ID is idempotent
// re-registration — the coordinator treats it as the same worker
// returning, not a new member.
type Hello struct {
	Version int
	ID      string
}

// Encode serializes the message payload.
func (m *Hello) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Int(m.Version)
	e.Str(m.ID)
	return b.Bytes()
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (*Hello, error) {
	d := sampler.NewDec(bytes.NewReader(p))
	m := &Hello{Version: d.Int(), ID: d.Str("worker id", 256)}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if m.ID == "" {
		return nil, fmt.Errorf("dist: empty worker id")
	}
	return m, nil
}

// Assign hands a worker its place in a new epoch: the topology (slot,
// worker count), the sampler configuration and corpus dimensions it
// needs to run phase bodies and validate its shard, the routing tables
// (row and column owner maps), the layout counts of the slot's two slabs
// (cluster.Topology.Counts), the block granularity of the pipelined
// exchange, and finally the worker's token-shard state as a raw dshd
// stream.
type Assign struct {
	Epoch, Slot, P, Iter  int
	K                     int
	Alpha, Beta           float64
	AlphaVec              []float64 // asymmetric prior of length K, or nil
	M                     int
	Seed                  uint64
	V, NumDocs            int
	NumTokens             int
	BlockTokens           int
	Rows, Cols            []int32
	WordCounts, DocCounts []int32
	Shard                 []byte // raw dshd stream, trailing

	// Set by DecodeAssign, not encoded: the topology as the slot sees
	// it, and the shard's state with its tokens laid out for the word
	// phase.
	Top   *cluster.Topology
	State *core.WorkerState
}

// Encode serializes the message payload.
func (m *Assign) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Ints(m.Epoch, m.Slot, m.P, m.Iter, m.K)
	e.F64(m.Alpha)
	e.F64(m.Beta)
	e.F64s(m.AlphaVec)
	e.Int(m.M)
	e.U64(m.Seed)
	e.Ints(m.V, m.NumDocs, m.NumTokens, m.BlockTokens)
	e.I32s(m.Rows)
	e.I32s(m.Cols)
	e.I32s(m.WordCounts)
	e.I32s(m.DocCounts)
	b.Write(m.Shard)
	return b.Bytes()
}

// DecodeAssign parses an Assign payload and checks it as a whole: the
// α vector, the owner maps and the layout counts (NewSlotTopology), then
// the shard, whose tokens it lays out for the word phase — so counts
// that disagree with the shard's key sizes fail here, before the worker
// adopts anything.
func DecodeAssign(p []byte) (*Assign, error) {
	r := bytes.NewReader(p)
	d := sampler.NewDec(r)
	m := &Assign{
		Epoch: d.Int(), Slot: d.Int(), P: d.Int(), Iter: d.Int(),
		K: d.Int(), Alpha: d.F64(), Beta: d.F64(),
	}
	m.AlphaVec = d.F64s("alpha vector")
	m.M, m.Seed = d.Int(), d.U64()
	m.V, m.NumDocs, m.NumTokens, m.BlockTokens = d.Int(), d.Int(), d.Int(), d.Int()
	if d.Err() == nil {
		// More workers than keys of both kinds would own nothing; the
		// bound keeps the per-worker tables proportional to the payload.
		if m.K < 1 || m.M < 1 || m.P < 1 || m.Slot < 0 || m.Slot >= m.P ||
			m.V < 1 || m.NumDocs < 1 || m.NumTokens < 0 || m.BlockTokens < 1 || m.P > m.V+m.NumDocs {
			return nil, fmt.Errorf("dist: assign with implausible dimensions")
		}
		if m.AlphaVec != nil && len(m.AlphaVec) != m.K {
			return nil, fmt.Errorf("dist: assign α vector of length %d for %d topics", len(m.AlphaVec), m.K)
		}
		for _, a := range m.AlphaVec {
			if !(a > 0) || math.IsInf(a, 0) {
				return nil, fmt.Errorf("dist: assign α vector entry %g", a)
			}
		}
	}
	m.Rows = d.I32sLen("row owners", m.NumDocs)
	m.Cols = d.I32sLen("column owners", m.V)
	m.WordCounts = d.I32s("word layout counts")
	m.DocCounts = d.I32s("doc layout counts")
	if err := d.Err(); err != nil {
		return nil, err
	}
	m.Shard = p[len(p)-r.Len():]
	top, err := cluster.NewSlotTopology(m.Rows, m.Cols, m.P, m.Slot, m.WordCounts, m.DocCounts, m.NumTokens)
	if err != nil {
		return nil, err
	}
	st, err := core.DecodeWorkerState(bytes.NewReader(m.Shard), m.K, m.M, m.NumDocs, m.V, m.NumTokens)
	if err != nil {
		return nil, err
	}
	if st.Index != m.Slot || st.Workers != m.P {
		return nil, fmt.Errorf("dist: assign for slot %d/%d carries shard %d/%d", m.Slot, m.P, st.Index, st.Workers)
	}
	if n := top.Size(PhaseWord, m.Slot); st.Tokens.Len() != n {
		return nil, fmt.Errorf("dist: assign lays out %d tokens for a shard of %d", n, st.Tokens.Len())
	}
	var n cluster.Next
	n.Reset(top, PhaseWord, m.Slot, m.M+1)
	for j, di := range st.Tokens.D {
		if _, err := n.Put(int(m.Rows[di]), &st.Tokens, j); err != nil {
			return nil, err
		}
	}
	if err := n.Full(); err != nil {
		return nil, err
	}
	st.Tokens = n.Slab
	m.Top, m.State = top, st
	return m, nil
}

// PassStart launches one training pass: the iteration number and the
// pass's replicated global topic-count vector.
type PassStart struct {
	Epoch, Iter int
	CK          []int32
}

// Encode serializes the message payload.
func (m *PassStart) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Ints(m.Epoch, m.Iter)
	e.I32s(m.CK)
	return b.Bytes()
}

// DecodePassStart parses a PassStart payload; k is the expected topic
// count.
func DecodePassStart(p []byte, k int) (*PassStart, error) {
	d := sampler.NewDec(bytes.NewReader(p))
	m := &PassStart{Epoch: d.Int(), Iter: d.Int()}
	m.CK = d.I32sLen("global counts", k)
	return decoded(m, d)
}

// Block ships a batch of finished tokens to their next owner. From and
// To are worker slots; the coordinator relays the frame to To without
// re-encoding it. Tokens travel as three flat arrays with the same
// stride-(M+1) payload layout as the dshd stream.
type Block struct {
	Epoch, Iter, Phase, From, To int
	DS, WS, Payload              []int32
}

// Encode serializes the message payload.
func (m *Block) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Ints(m.Epoch, m.Iter, m.Phase, m.From, m.To)
	e.I32s(m.DS)
	e.I32s(m.WS)
	e.I32s(m.Payload)
	return b.Bytes()
}

// DecodeBlock parses a Block payload and validates it structurally: the
// arrays must agree with the stride, every topic must lie in [0, k),
// every cell inside (numDocs, v). A corrupt or hostile peer must not be
// able to panic the phase bodies.
func DecodeBlock(p []byte, k, m, numDocs, v int) (*Block, error) {
	d := sampler.NewDec(bytes.NewReader(p))
	b := &Block{Epoch: d.Int(), Iter: d.Int(), Phase: d.Int(), From: d.Int(), To: d.Int()}
	b.DS = d.I32s("block docs")
	b.WS = d.I32sLen("block words", len(b.DS))
	b.Payload = d.I32sLen("block payloads", len(b.DS)*(m+1))
	d.CheckTopics("block payloads", b.Payload, k)
	if err := d.Err(); err != nil {
		return nil, err
	}
	for j := range b.DS {
		if b.DS[j] < 0 || int(b.DS[j]) >= numDocs || b.WS[j] < 0 || int(b.WS[j]) >= v {
			return nil, fmt.Errorf("dist: block token at cell (%d,%d) outside corpus", b.DS[j], b.WS[j])
		}
	}
	return b, nil
}

// BlockHeader is the fixed prefix of a Block payload — everything the
// coordinator needs to relay the frame. Decoding only this keeps the
// relay path O(1) in the block size.
type BlockHeader struct {
	Epoch, Iter, Phase, From, To int
}

// DecodeBlockHeader parses just the routing prefix of a Block payload.
func DecodeBlockHeader(p []byte) (*BlockHeader, error) {
	d := sampler.NewDec(bytes.NewReader(p))
	return decoded(&BlockHeader{Epoch: d.Int(), Iter: d.Int(), Phase: d.Int(), From: d.Int(), To: d.Int()}, d)
}

// Sync is the shared shape of the small control messages: PhaseDone,
// Barrier, PassEnd's header, ShardReq, ShardState's header, Abort.
type Sync struct {
	Epoch, Iter, Phase, From int
}

// Encode serializes the message payload.
func (m *Sync) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Ints(m.Epoch, m.Iter, m.Phase, m.From)
	return b.Bytes()
}

// DecodeSync parses a Sync-shaped payload.
func DecodeSync(p []byte) (*Sync, error) {
	d := sampler.NewDec(bytes.NewReader(p))
	return decoded(&Sync{Epoch: d.Int(), Iter: d.Int(), Phase: d.Int(), From: d.Int()}, d)
}

// PassEnd reports a worker's completed pass along with its delta
// contribution to the next global topic-count vector; the coordinator
// sums these across workers (the once-per-pass allreduce).
type PassEnd struct {
	Epoch, Iter, From int
	CkAcc             []int32
}

// Encode serializes the message payload.
func (m *PassEnd) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Ints(m.Epoch, m.Iter, m.From)
	e.I32s(m.CkAcc)
	return b.Bytes()
}

// DecodePassEnd parses a PassEnd payload; k is the expected topic count.
func DecodePassEnd(p []byte, k int) (*PassEnd, error) {
	d := sampler.NewDec(bytes.NewReader(p))
	m := &PassEnd{Epoch: d.Int(), Iter: d.Int(), From: d.Int()}
	m.CkAcc = d.I32sLen("ck delta", k)
	return decoded(m, d)
}

// ShardState uploads a worker's current shard as a raw dshd stream when
// the coordinator's state is read (an evaluation, a checkpoint, a
// join). The coordinator feeds the streams of all workers straight into
// RestoreShards — the same validate-then-commit gate checkpoint restore
// uses.
type ShardState struct {
	Epoch, Iter, From int
	Shard             []byte // raw dshd stream, trailing
}

// Encode serializes the message payload.
func (m *ShardState) Encode() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	e.Ints(m.Epoch, m.Iter, m.From)
	b.Write(m.Shard)
	return b.Bytes()
}

// DecodeShardState parses a ShardState payload.
func DecodeShardState(p []byte) (*ShardState, error) {
	r := bytes.NewReader(p)
	d := sampler.NewDec(r)
	m := &ShardState{Epoch: d.Int(), Iter: d.Int(), From: d.Int()}
	m.Shard = p[len(p)-r.Len():]
	return decoded(m, d)
}

// decoded returns m, or nil and d's error when decoding it failed.
func decoded[T any](m *T, d *sampler.Dec) (*T, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
