// Package dist is the live multi-process execution mode of the
// Section 5.3 design: a coordinator process owns the corpus and the
// partitions; worker processes own disjoint token shards and run the
// SAME phase driver as the in-process sampler (internal/cluster's
// Worker, over internal/core's kernels), exchanging off-diagonal token
// blocks over TCP instead of shared memory. The only replicated state
// is the K-dim global count vector, aggregated from per-worker deltas
// once per pass — exactly the paper's claim.
//
// The coordinator is a sampler.Sharded that internal/train's Run
// drives, as it drives every in-process sampler: evaluation, sharded
// checkpoints, retention and resume are the trainer's. Fault tolerance
// is elastic resume, not protocol recovery: every epoch starts at
// RestoreShards. A worker dying mid-pass rewinds the run to the newest
// checkpoint (sampler.Rewinder), through the path -resume takes; a
// worker joining reforms the cluster from the current shards; a
// restarted coordinator resumes the newest checkpoint. The transport
// below is therefore allowed to fail fast and simply: any connection
// error ends the epoch.
//
// Wire format: every message is one frame —
//
//	"WRPF" | type (1 byte) | payload length (uint32 LE) | payload | CRC32
//
// with the IEEE CRC32 trailer covering type, length, and payload — the
// fsio envelope, whose body is everything after the magic. The
// byte-level specification lives in docs/FORMATS.md next to the
// WARPSHRD shard format, which travels verbatim inside Assign and
// ShardState payloads.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"

	"warplda/internal/fsio"
)

// frameMagic starts every frame; a connection that yields anything else
// is not speaking this protocol and is dropped immediately.
const frameMagic = "WRPF"

// MaxFramePayload bounds a frame's decoded payload length before any
// allocation happens: a corrupt or hostile length prefix must not
// trigger a multi-gigabyte allocation ahead of the CRC check.
const MaxFramePayload = 1 << 30

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

// msgNames names the message types for logs and errors.
var msgNames = [...]string{
	MsgHello: "hello", MsgWelcome: "welcome", MsgAssign: "assign", MsgPassStart: "pass-start",
	MsgBlock: "block", MsgPhaseDone: "phase-done", MsgBarrier: "barrier", MsgPassEnd: "pass-end",
	MsgShardReq: "shard-req", MsgShardState: "shard-state", MsgPing: "ping", MsgPong: "pong",
	MsgAbort: "abort", MsgShutdown: "shutdown",
}

// String names the message type for logs and errors.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("msg-%d", uint8(t))
}

// WriteFrame writes one frame to w. The caller owns buffering and
// deadlines on the underlying connection.
func WriteFrame(w io.Writer, typ MsgType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("dist: %s frame payload %d bytes exceeds limit %d", typ, len(payload), MaxFramePayload)
	}
	var hdr [5]byte
	hdr[0] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	_, _, err := fsio.WriteEnvelope(w, frameMagic, func(w io.Writer) error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
	return err
}

// ReadFrame reads one frame from r, verifying magic and CRC before the
// payload is returned. A frame failing either check poisons the stream
// (framing is lost), so callers must drop the connection on error. The
// payload grows as bytes arrive (fsio.ReadSlice): a header claiming a
// gigabyte then hanging up costs one chunk, not the claim.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	er, err := fsio.NewReader(r, frameMagic)
	if err != nil {
		return 0, nil, err
	}
	var hdr [5]byte
	if _, err := io.ReadFull(er, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ := MsgType(hdr[0])
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("dist: %s frame declares %d-byte payload, limit %d", typ, n, MaxFramePayload)
	}
	payload, err := fsio.ReadSlice[byte](er, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("dist: reading %s payload: %w", typ, err)
	}
	if err := er.Close(); err != nil {
		return 0, nil, fmt.Errorf("dist: %s frame %w", typ, err)
	}
	return typ, payload, nil
}
