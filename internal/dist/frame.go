// Package dist is the live multi-process execution mode of the
// Section 5.3 design: a coordinator process owns the corpus, the
// partitions, and the sharded checkpoint directory; worker processes
// own disjoint token shards and run the SAME phase driver as the
// in-process sampler (internal/cluster's Worker, over internal/core's
// kernels), exchanging off-diagonal token blocks over TCP instead of
// shared memory. The only
// replicated state is the K-dim global count vector, aggregated from
// per-worker deltas once per pass — exactly the paper's claim.
//
// Fault tolerance is elastic resume, not protocol recovery: every
// membership change — a worker dying mid-pass, a worker joining, the
// coordinator itself restarting — is handled by reforming the cluster
// from the last manifest-committed sharded checkpoint, the same tested
// path internal/train uses for -resume. The transport below is
// therefore allowed to fail fast and simply: any connection error
// aborts the epoch and the coordinator reforms.
//
// Wire format: every message is one frame —
//
//	"WRPF" | type (1 byte) | payload length (uint32 LE) | payload | CRC32
//
// with the IEEE CRC32 trailer covering type, length, and payload. The
// byte-level specification lives in docs/FORMATS.md next to the
// WARPSHRD shard format, which travels verbatim inside Assign and
// ShardState payloads.
package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// frameMagic starts every frame; a connection that yields anything else
// is not speaking this protocol and is dropped immediately.
const frameMagic = "WRPF"

// MaxFramePayload bounds a frame's decoded payload length before any
// allocation happens: a corrupt or hostile length prefix must not
// trigger a multi-gigabyte allocation ahead of the CRC check.
const MaxFramePayload = 1 << 30

// frameAllocChunk bounds how far ReadFrame's payload buffer grows ahead
// of the bytes actually read.
const frameAllocChunk = 64 << 10

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MsgType identifies a frame's payload schema (see proto.go).
type MsgType uint8

// The protocol's message types. Hello/Welcome form the handshake,
// Assign distributes shard state, PassStart/Block/PhaseDone/Barrier/
// PassEnd drive one training pass, ShardReq/ShardState collect state at
// sync points, Ping/Pong carry liveness, and Abort/Shutdown end an
// epoch or the run.
const (
	MsgHello MsgType = iota + 1
	MsgWelcome
	MsgAssign
	MsgPassStart
	MsgBlock
	MsgPhaseDone
	MsgBarrier
	MsgPassEnd
	MsgShardReq
	MsgShardState
	MsgPing
	MsgPong
	MsgAbort
	MsgShutdown
)

// String names the message type for logs and errors.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgAssign:
		return "assign"
	case MsgPassStart:
		return "pass-start"
	case MsgBlock:
		return "block"
	case MsgPhaseDone:
		return "phase-done"
	case MsgBarrier:
		return "barrier"
	case MsgPassEnd:
		return "pass-end"
	case MsgShardReq:
		return "shard-req"
	case MsgShardState:
		return "shard-state"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgAbort:
		return "abort"
	case MsgShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("msg-%d", uint8(t))
}

// WriteFrame writes one frame to w. The caller owns buffering and
// deadlines on the underlying connection.
func WriteFrame(w io.Writer, typ MsgType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("dist: %s frame payload %d bytes exceeds limit %d", typ, len(payload), MaxFramePayload)
	}
	var hdr [9]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:9])
	crc.Write(payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// ReadFrame reads one frame from r, verifying magic and CRC before the
// payload is returned. A frame failing either check poisons the stream
// (framing is lost), so callers must drop the connection on error.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if string(hdr[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("dist: bad frame magic %q", hdr[:4])
	}
	typ := MsgType(hdr[4])
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("dist: %s frame declares %d-byte payload, limit %d", typ, n, MaxFramePayload)
	}
	// Grow the payload buffer as bytes actually arrive instead of
	// trusting the length prefix: a hostile or corrupt header claiming
	// a gigabyte then hanging up costs one chunk, not the claim.
	payload := make([]byte, 0, minInt(int(n), frameAllocChunk))
	for len(payload) < int(n) {
		g := minInt(int(n)-len(payload), frameAllocChunk)
		off := len(payload)
		payload = append(payload, make([]byte, g)...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return 0, nil, fmt.Errorf("dist: reading %s payload: %w", typ, err)
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return 0, nil, fmt.Errorf("dist: reading %s trailer: %w", typ, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:9])
	crc.Write(payload)
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return 0, nil, fmt.Errorf("dist: %s frame checksum mismatch (wire %08x, computed %08x)", typ, want, got)
	}
	return typ, payload, nil
}
