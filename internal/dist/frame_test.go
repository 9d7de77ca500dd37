package dist

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	var b bytes.Buffer
	for _, p := range payloads {
		for _, typ := range []MsgType{MsgHello, MsgBlock, MsgShutdown} {
			if err := WriteFrame(&b, typ, p); err != nil {
				t.Fatalf("write %s: %v", typ, err)
			}
		}
	}
	for _, p := range payloads {
		for _, typ := range []MsgType{MsgHello, MsgBlock, MsgShutdown} {
			got, gp, err := ReadFrame(&b)
			if err != nil {
				t.Fatalf("read %s: %v", typ, err)
			}
			if got != typ {
				t.Fatalf("type = %s, want %s", got, typ)
			}
			if !bytes.Equal(gp, p) {
				t.Fatalf("%s payload mismatch: %d bytes, want %d", typ, len(gp), len(p))
			}
		}
	}
	if _, _, err := ReadFrame(&b); err != io.EOF {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, MsgPassStart, []byte("payload-bytes")); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	t.Run("bad_magic", func(t *testing.T) {
		f := frame()
		f[0] ^= 0xFF
		if _, _, err := ReadFrame(bytes.NewReader(f)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want bad magic", err)
		}
	})
	t.Run("flipped_payload_byte", func(t *testing.T) {
		f := frame()
		f[11] ^= 0x01
		if _, _, err := ReadFrame(bytes.NewReader(f)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum mismatch", err)
		}
	})
	t.Run("flipped_type_byte", func(t *testing.T) {
		f := frame()
		f[4] ^= 0x01 // type is covered by the CRC too
		if _, _, err := ReadFrame(bytes.NewReader(f)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum mismatch", err)
		}
	})
	t.Run("flipped_trailer_byte", func(t *testing.T) {
		f := frame()
		f[len(f)-1] ^= 0x01
		if _, _, err := ReadFrame(bytes.NewReader(f)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum mismatch", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		f := frame()
		if _, _, err := ReadFrame(bytes.NewReader(f[:len(f)-2])); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
	t.Run("oversize_length", func(t *testing.T) {
		f := frame()
		// Length field claims more than MaxFramePayload; the reader must
		// refuse before allocating.
		f[5], f[6], f[7], f[8] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, _, err := ReadFrame(bytes.NewReader(f)); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("err = %v, want payload limit", err)
		}
	})
	t.Run("writer_refuses_oversize", func(t *testing.T) {
		var b bytes.Buffer
		if err := WriteFrame(&b, MsgBlock, make([]byte, MaxFramePayload+1)); err == nil {
			t.Fatal("oversize payload accepted")
		}
		if b.Len() != 0 {
			t.Fatal("oversize write left partial bytes on the stream")
		}
	})
}

func TestHelloRoundTrip(t *testing.T) {
	m := &Hello{Version: ProtoVersion, ID: "worker-7"}
	got, err := DecodeHello(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || got.ID != m.ID {
		t.Fatalf("got %+v, want %+v", got, m)
	}
	if _, err := DecodeHello((&Hello{Version: 1}).Encode()); err == nil {
		t.Fatal("empty worker ID accepted")
	}
}

// testAssign returns a valid Assign for slot 1 of 2 over a small
// corpus, built as the coordinator builds it from its shadow sampler,
// and the global topic counts of the pass it starts.
func testAssign(t testing.TB) (*Assign, []int32) {
	t.Helper()
	c := &corpus.Corpus{V: 5, Docs: [][]int32{{0, 1, 1, 4}, {2, 3}, {0, 4, 4}, {1, 2, 3, 3}, {4, 0}}}
	cfg := sampler.PaperDefaults(8)
	cfg.M, cfg.Seed = 2, 99
	cfg.AlphaVec = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	d, err := cluster.NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Iterate()
	var sb bytes.Buffer
	if err := d.ShardTo(1, &sb); err != nil {
		t.Fatal(err)
	}
	rows, cols := d.Partitions()
	m := &Assign{
		Epoch: 3, Slot: 1, P: 2, Iter: 1,
		K: cfg.K, Alpha: cfg.Alpha, Beta: cfg.Beta, AlphaVec: cfg.AlphaVec, M: cfg.M, Seed: cfg.Seed,
		V: c.V, NumDocs: c.NumDocs(), NumTokens: c.NumTokens(), BlockTokens: 3,
		Rows: rows, Cols: cols, Shard: sb.Bytes(),
	}
	m.WordCounts, m.DocCounts = d.Counts(1)
	return m, d.GlobalCounts()
}

func TestAssignRoundTrip(t *testing.T) {
	m, _ := testAssign(t)
	got, err := DecodeAssign(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Slot != m.Slot || got.P != m.P || got.Iter != m.Iter ||
		got.K != m.K || got.Alpha != m.Alpha || got.Beta != m.Beta || got.M != m.M ||
		got.Seed != m.Seed || got.V != m.V || got.NumDocs != m.NumDocs ||
		got.NumTokens != m.NumTokens || got.BlockTokens != m.BlockTokens {
		t.Fatalf("scalar mismatch: got %+v", got)
	}
	if !slices.Equal(got.AlphaVec, m.AlphaVec) || !equalI32(got.WordCounts, m.WordCounts) || !equalI32(got.DocCounts, m.DocCounts) {
		t.Fatalf("α vector or layout counts: got %v %v %v", got.AlphaVec, got.WordCounts, got.DocCounts)
	}
	if !bytes.Equal(got.Shard, m.Shard) {
		t.Fatalf("shard bytes: got %q", got.Shard)
	}
	// The coordinator's shard is already laid out: DecodeAssign puts
	// every token back where it was.
	st, err := core.DecodeWorkerState(bytes.NewReader(m.Shard), m.K, m.M, m.NumDocs, m.V, m.NumTokens)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.State, st) {
		t.Fatal("the decoded shard is not laid out as the coordinator's")
	}

	// Each case edits a copy; the shard stays the valid one.
	for _, tc := range []struct {
		name string
		edit func(a *Assign)
	}{
		{"column owner outside [0, P)", func(a *Assign) { a.Cols[2] = 5 }},
		{"slot >= P", func(a *Assign) { a.Slot = 2 }},
		{"α vector of the wrong length", func(a *Assign) { a.AlphaVec = a.AlphaVec[1:] }},
		{"zero α entry", func(a *Assign) { a.AlphaVec[3] = 0 }},
		{"NaN α entry", func(a *Assign) { a.AlphaVec[3] = math.NaN() }},
		{"infinite α entry", func(a *Assign) { a.AlphaVec[3] = math.Inf(1) }},
		{"word counts of the wrong length", func(a *Assign) { a.WordCounts = a.WordCounts[1:] }},
		{"doc counts of the wrong length", func(a *Assign) { a.DocCounts = append(a.DocCounts, 0) }},
		{"negative count", func(a *Assign) { a.DocCounts[0] = -1 }},
		{"word counts summing past the shard", func(a *Assign) { a.WordCounts[0]++ }},
		{"word counts disagreeing with the shard's key sizes", func(a *Assign) {
			moveCount(a.WordCounts)
		}},
		{"doc counts summing past NumTokens", func(a *Assign) { a.DocCounts[0] = int32(a.NumTokens) + 1 }},
	} {
		bad := *m
		bad.AlphaVec = slices.Clone(m.AlphaVec)
		bad.Cols = slices.Clone(m.Cols)
		bad.WordCounts, bad.DocCounts = slices.Clone(m.WordCounts), slices.Clone(m.DocCounts)
		tc.edit(&bad)
		if _, err := DecodeAssign(bad.Encode()); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// moveCount moves one token of the first non-empty region of counts to
// the region after it, keeping the total.
func moveCount(counts []int32) {
	for c := range counts {
		if counts[c] > 0 {
			counts[c]--
			counts[(c+1)%len(counts)]++
			return
		}
	}
}

func TestBlockRoundTripAndValidation(t *testing.T) {
	const k, m, numDocs, v = 6, 2, 10, 12
	b := &Block{
		Epoch: 2, Iter: 9, Phase: PhaseDoc, From: 0, To: 1,
		DS:      []int32{1, 4, 9},
		WS:      []int32{0, 11, 3},
		Payload: []int32{5, 0, 1, 2, 3, 4, 0, 5, 5},
	}
	got, err := DecodeBlock(b.Encode(), k, m, numDocs, v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || got.Iter != 9 || got.Phase != PhaseDoc || got.From != 0 || got.To != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !equalI32(got.DS, b.DS) || !equalI32(got.WS, b.WS) || !equalI32(got.Payload, b.Payload) {
		t.Fatal("array mismatch")
	}

	h, err := DecodeBlockHeader(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 2 || h.Iter != 9 || h.Phase != PhaseDoc || h.From != 0 || h.To != 1 {
		t.Fatalf("block header mismatch: %+v", h)
	}

	bad := *b
	bad.Payload = []int32{5, 0, 1, 2, 3, 4, 0, 5, int32(k)} // topic out of range
	if _, err := DecodeBlock(bad.Encode(), k, m, numDocs, v); err == nil {
		t.Fatal("out-of-range topic accepted")
	}
	bad = *b
	bad.DS = []int32{1, 4, int32(numDocs)} // doc out of range
	if _, err := DecodeBlock(bad.Encode(), k, m, numDocs, v); err == nil {
		t.Fatal("out-of-range doc accepted")
	}
	bad = *b
	bad.WS = []int32{0, 11} // length disagreement
	if _, err := DecodeBlock(bad.Encode(), k, m, numDocs, v); err == nil {
		t.Fatal("ragged arrays accepted")
	}
}

func TestSmallMessageRoundTrips(t *testing.T) {
	ps := &PassStart{Epoch: 1, Iter: 7, CK: []int32{3, 0, 5}}
	gps, err := DecodePassStart(ps.Encode(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if gps.Epoch != 1 || gps.Iter != 7 || !equalI32(gps.CK, ps.CK) {
		t.Fatalf("pass-start mismatch: %+v", gps)
	}
	if _, err := DecodePassStart(ps.Encode(), 4); err == nil {
		t.Fatal("wrong-K global counts accepted")
	}

	sy := &Sync{Epoch: 2, Iter: 8, Phase: PhaseWord, From: 3}
	gsy, err := DecodeSync(sy.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *gsy != *sy {
		t.Fatalf("sync mismatch: %+v", gsy)
	}

	pe := &PassEnd{Epoch: 4, Iter: 11, From: 1, CkAcc: []int32{1, -2, 1}}
	gpe, err := DecodePassEnd(pe.Encode(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if gpe.Epoch != 4 || gpe.Iter != 11 || gpe.From != 1 || !equalI32(gpe.CkAcc, pe.CkAcc) {
		t.Fatalf("pass-end mismatch: %+v", gpe)
	}

	ss := &ShardState{Epoch: 5, Iter: 12, From: 0, Shard: []byte{1, 2, 3}}
	gss, err := DecodeShardState(ss.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gss.Epoch != 5 || gss.Iter != 12 || gss.From != 0 || !bytes.Equal(gss.Shard, ss.Shard) {
		t.Fatalf("shard-state mismatch: %+v", gss)
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
