package dist

import (
	"bytes"
	"runtime"
	"testing"

	"warplda/internal/sampler"
)

// FuzzDecodeFrame feeds ReadFrame hostile bytes: the decoder must never
// panic, never allocate proportionally to a forged length prefix, and
// every frame it accepts must re-encode to the exact bytes it consumed
// (the format has one canonical encoding). An accepted Assign frame must
// also decode or fail without a panic.
func FuzzDecodeFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, MsgHello, []byte("worker-1")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, MsgPing, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(frameMagic))
	f.Add([]byte{})
	f.Add(valid.Bytes()[:valid.Len()-2])
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[6] ^= 0x01 // length prefix
	f.Add(flipped)
	// A maximal length claim with no payload behind it.
	huge := []byte(frameMagic + "\x05\xff\xff\xff\x3f")
	f.Add(huge)
	// An Assign whose layout counts are negative: well framed, refused
	// by DecodeAssign.
	a, _ := testAssign(f)
	a.DocCounts[0] = -1
	var assign bytes.Buffer
	if err := WriteFrame(&assign, MsgAssign, a.Encode()); err != nil {
		f.Fatal(err)
	}
	f.Add(assign.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteFrame(&re, typ, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatalf("re-encoded frame differs from the consumed bytes:\n got %x\nwant %x", re.Bytes(), data[:re.Len()])
		}
		if typ == MsgAssign {
			DecodeAssign(payload)
		}
	})
}

// TestReadFrameTruncationFootprint pins the chunked-allocation defense:
// a header declaring the 1 GiB maximum with no payload behind it must
// fail after one chunk, not after reserving the claim.
func TestReadFrameTruncationFootprint(t *testing.T) {
	hostile := []byte(frameMagic + "\x05\xff\xff\xff\x3f") // MaxFramePayload declared, zero bytes delivered
	if _, _, err := ReadFrame(bytes.NewReader(hostile)); err == nil {
		t.Fatal("truncated 1 GiB frame accepted")
	}
	// Allocation tracks delivered bytes: a short prefix of real payload
	// fails at EOF with only chunk-sized growth behind it.
	withSome := append(append([]byte(nil), hostile...), make([]byte, 1024)...)
	if _, _, err := ReadFrame(bytes.NewReader(withSome)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// hostileBlock is a 48-byte Block payload: the five routing ints, then
// a docs length prefix of 2³¹−1 with nothing behind it.
func hostileBlock() []byte {
	var b bytes.Buffer
	e := sampler.NewEnc(&b)
	for i := 0; i < 5; i++ {
		e.Int(0)
	}
	e.Int(1<<31 - 1)
	return b.Bytes()
}

// FuzzDecodeBlock feeds DecodeBlock hostile payloads. The coordinator
// relays Block frames after decoding only their routing prefix, and the
// frame CRC protects framing, not content, so a worker decodes whatever
// a peer sent: the decoder must never panic, never allocate in
// proportion to a length prefix the bytes don't back, and everything it
// accepts must satisfy the invariants the phase bodies index by and
// re-encode to the bytes it consumed.
func FuzzDecodeBlock(f *testing.F) {
	const k, m, numDocs, v = 4, 1, 8, 8
	valid := (&Block{Epoch: 1, Iter: 2, Phase: PhaseDoc, From: 0, To: 1,
		DS: []int32{0, 7, 3}, WS: []int32{5, 0, 7}, Payload: []int32{0, 3, 1, 1, 3, 2}}).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(hostileBlock())

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data, k, m, numDocs, v)
		if err != nil {
			return
		}
		if len(b.WS) != len(b.DS) || len(b.Payload) != len(b.DS)*(m+1) {
			t.Fatalf("accepted ragged block: %d docs, %d words, %d payloads", len(b.DS), len(b.WS), len(b.Payload))
		}
		for j := range b.DS {
			if b.DS[j] < 0 || b.DS[j] >= numDocs || b.WS[j] < 0 || b.WS[j] >= v {
				t.Fatalf("accepted token at cell (%d,%d)", b.DS[j], b.WS[j])
			}
		}
		for _, z := range b.Payload {
			if z < 0 || z >= k {
				t.Fatalf("accepted topic %d", z)
			}
		}
		re := b.Encode()
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-encoded block differs from the consumed bytes:\n got %x\nwant %x", re, data[:len(re)])
		}
	})
}

// TestDecodeBlockHostileLengthFailsSmall: the 48-byte hostile payload
// must fail with under 1 MiB allocated. A decoder that allocated the
// claimed 8 GiB up front would end the worker in an out-of-memory fatal
// error, which no recover catches.
func TestDecodeBlockHostileLengthFailsSmall(t *testing.T) {
	p := hostileBlock()
	if len(p) != 48 {
		t.Fatalf("hostile payload is %d bytes, want 48", len(p))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeBlock(p, 4, 1, 8, 8)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("block with a 2³¹−1 docs prefix and no docs accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the hostile block allocated %d bytes, want < 1 MiB", got)
	}
}
