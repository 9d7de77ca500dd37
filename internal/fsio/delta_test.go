package fsio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testDelta builds a small consistent delta: two cells changed on a 4×3
// model, Ck updated to match, fingerprints chained from base.
func testDelta(t *testing.T) *ModelDelta {
	t.Helper()
	d := &ModelDelta{
		V: 4, K: 3, Gen: 1,
		BaseFP: ModelFingerprint(4, 3, make([]int32, 12), make([]int64, 3)),
		Iter:   7, LogLik: -123.5,
		Cells: []DeltaCell{{W: 0, T: 1, Add: 2}, {W: 2, T: 0, Add: -1}, {W: 2, T: 2, Add: 3}},
		Ck:    []int64{4, 9, 6},
	}
	d.NewFP = ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck)
	return d
}

func TestDeltaRoundTrip(t *testing.T) {
	d := testDelta(t)
	var buf bytes.Buffer
	n, err := d.WriteDelta(&buf)
	if err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteDelta reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestDeltaRoundTripEmpty(t *testing.T) {
	// A no-change interval still publishes a delta (the generation and
	// iteration advance); the codec must handle zero cells.
	d := &ModelDelta{V: 2, K: 2, Gen: 3, BaseFP: 42, Iter: 10, LogLik: -1, Ck: []int64{1, 2}}
	d.NewFP = ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck)
	var buf bytes.Buffer
	if _, err := d.WriteDelta(&buf); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	got, err := ReadDelta(&buf)
	if err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	if got.Gen != 3 || len(got.Cells) != 0 || !reflect.DeepEqual(got.Ck, d.Ck) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDeltaCorruptionRejected(t *testing.T) {
	d := testDelta(t)
	var buf bytes.Buffer
	if _, err := d.WriteDelta(&buf); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	clean := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"truncated header", func(b []byte) []byte { return b[:12] }, "reading delta header"},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-2] }, "checksum"},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic"},
		{"bit flip in body", func(b []byte) []byte { b[len(DeltaMagic)+20] ^= 0x01; return b }, ""},
		{"bit flip in checksum", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, "checksum"},
		{"empty file", func(b []byte) []byte { return nil }, "reading delta header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), clean...))
			_, err := ReadDelta(bytes.NewReader(b))
			if err == nil {
				t.Fatalf("ReadDelta accepted %s", tc.name)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestDeltaValidate(t *testing.T) {
	base := func() *ModelDelta { return testDelta(t) }
	reseal := func(d *ModelDelta) *ModelDelta {
		d.NewFP = ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck)
		return d
	}
	cases := []struct {
		name   string
		mutate func(*ModelDelta) *ModelDelta
	}{
		{"zero V", func(d *ModelDelta) *ModelDelta { d.V = 0; return reseal(d) }},
		{"gen zero", func(d *ModelDelta) *ModelDelta { d.Gen = 0; return reseal(d) }},
		{"negative iter", func(d *ModelDelta) *ModelDelta { d.Iter = -1; return reseal(d) }},
		{"NaN loglik", func(d *ModelDelta) *ModelDelta { d.LogLik = math.NaN(); return reseal(d) }},
		{"short Ck", func(d *ModelDelta) *ModelDelta { d.Ck = d.Ck[:2]; return reseal(d) }},
		{"negative Ck", func(d *ModelDelta) *ModelDelta { d.Ck[1] = -1; return reseal(d) }},
		{"cell word out of range", func(d *ModelDelta) *ModelDelta { d.Cells[2].W = 99; return reseal(d) }},
		{"cell topic out of range", func(d *ModelDelta) *ModelDelta { d.Cells[0].T = -1; return reseal(d) }},
		{"zero add", func(d *ModelDelta) *ModelDelta { d.Cells[1].Add = 0; return reseal(d) }},
		{"unsorted cells", func(d *ModelDelta) *ModelDelta {
			d.Cells[0], d.Cells[1] = d.Cells[1], d.Cells[0]
			return reseal(d)
		}},
		{"duplicate cell", func(d *ModelDelta) *ModelDelta {
			d.Cells[1] = d.Cells[0]
			return reseal(d)
		}},
		{"forged NewFP", func(d *ModelDelta) *ModelDelta { d.NewFP ^= 1; return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.mutate(base())
			if err := d.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if _, err := d.WriteDelta(io.Discard); err == nil {
				t.Fatalf("WriteDelta accepted %s", tc.name)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("Validate rejected a consistent delta: %v", err)
	}
}

func TestDeltaHugeCellCountRejectedCheaply(t *testing.T) {
	// A header that declares billions of cells but carries none must
	// fail fast on the dims/count sanity checks (or at EOF with a
	// bounded allocation), never by committing the declared size.
	d := testDelta(t)
	var buf bytes.Buffer
	if _, err := d.WriteDelta(&buf); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	b := buf.Bytes()
	// nCells is the 8th int64 field of the body: offset 8 (magic) + 7*8.
	off := len(DeltaMagic) + 56
	for i := 0; i < 8; i++ {
		b[off+i] = 0xff
	}
	b[off+7] = 0x7f // a huge positive count
	_, err := ReadDelta(bytes.NewReader(b))
	if err == nil {
		t.Fatal("ReadDelta accepted an absurd cell count")
	}
}

func TestChainFingerprintSensitivity(t *testing.T) {
	d := testDelta(t)
	fp := ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck)
	if fp2 := ChainFingerprint(d.BaseFP+1, d.Gen, d.Cells, d.Ck); fp2 == fp {
		t.Fatal("fingerprint ignores base")
	}
	if fp2 := ChainFingerprint(d.BaseFP, d.Gen+1, d.Cells, d.Ck); fp2 == fp {
		t.Fatal("fingerprint ignores generation")
	}
	cells := append([]DeltaCell(nil), d.Cells...)
	cells[0].Add++
	if fp2 := ChainFingerprint(d.BaseFP, d.Gen, cells, d.Ck); fp2 == fp {
		t.Fatal("fingerprint ignores cells")
	}
	ck := append([]int64(nil), d.Ck...)
	ck[0]++
	if fp2 := ChainFingerprint(d.BaseFP, d.Gen, d.Cells, ck); fp2 == fp {
		t.Fatal("fingerprint ignores Ck")
	}
}

func TestModelFingerprintSensitivity(t *testing.T) {
	cw := []int32{1, 2, 3, 4}
	ck := []int64{4, 6}
	fp := ModelFingerprint(2, 2, cw, ck)
	cw2 := append([]int32(nil), cw...)
	cw2[3]++
	if ModelFingerprint(2, 2, cw2, ck) == fp {
		t.Fatal("fingerprint ignores Cw")
	}
	ck2 := append([]int64(nil), ck...)
	ck2[0]++
	if ModelFingerprint(2, 2, cw, ck2) == fp {
		t.Fatal("fingerprint ignores Ck")
	}
	if ModelFingerprint(1, 4, cw, ck) == fp {
		t.Fatal("fingerprint ignores dims")
	}
}

// Zeros(n) hashes exactly what n zero cells through Counts do, and a
// fingerprint hashed in pieces is ModelFingerprint's.
func TestModelHasherZeros(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 31, 1000, 65537} {
		a, b := NewModelHasher(7, 9), NewModelHasher(7, 9)
		a.Counts([]int32{5})
		b.Counts([]int32{5})
		a.Zeros(n)
		b.Counts(make([]int32, n))
		if got, want := a.Sum([]int64{1, 2}), b.Sum([]int64{1, 2}); got != want {
			t.Fatalf("Zeros(%d) = %016x, %d zero cells hash to %016x", n, got, n, want)
		}
	}
	cw, ck := []int32{0, 0, 3, 0, 1, 0, 0, 0}, []int64{0, 0, 3, 1}
	h := NewModelHasher(2, 4)
	h.Zeros(2)
	h.Counts([]int32{3})
	h.Zeros(1)
	h.Counts([]int32{1})
	h.Zeros(3)
	if got, want := h.Sum(ck), ModelFingerprint(2, 4, cw, ck); got != want {
		t.Fatalf("pieces hash to %016x, ModelFingerprint = %016x", got, want)
	}
}

func TestDiffCounts(t *testing.T) {
	old := []int32{1, 0, 2, 5, 0, 0}
	new := []int32{1, 3, 2, 4, 0, 7}
	cells := DiffCounts(2, 3, old, new)
	want := []DeltaCell{{W: 0, T: 1, Add: 3}, {W: 1, T: 0, Add: -1}, {W: 1, T: 2, Add: 7}}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("DiffCounts = %+v, want %+v", cells, want)
	}
	// Applying the cells to old must reproduce new.
	got := append([]int32(nil), old...)
	for _, c := range cells {
		got[int(c.W)*3+int(c.T)] += c.Add
	}
	if !reflect.DeepEqual(got, new) {
		t.Fatalf("applying cells: got %v, want %v", got, new)
	}
	if cells := DiffCounts(2, 3, old, old); len(cells) != 0 {
		t.Fatalf("DiffCounts of identical counts = %+v, want none", cells)
	}
}

func TestReadDeltaPropagatesEOF(t *testing.T) {
	// Reading from an empty reader must surface an io error wrapped,
	// never a panic.
	_, err := ReadDelta(bytes.NewReader(nil))
	if err == nil || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadDelta(empty) = %v, want wrapped io.EOF", err)
	}
}
