package warplda

import (
	"bytes"
	"testing"
)

// FuzzReadModel feeds ReadModel hostile bytes. The decoder must never
// panic and never allocate proportionally to a forged header (the
// harness's -fuzzminimizetime memory limits catch over-allocation as a
// crash); every input it does accept must describe a servable model and
// survive a write/read round trip unchanged.
func FuzzReadModel(f *testing.F) {
	// A real v2 model with vocabulary, as WriteTo produces it.
	m := &Model{
		Cfg:    Config{K: 2, Alpha: 0.5, Beta: 0.01},
		V:      3,
		Vocab:  []string{"alpha", "beta", "gamma"},
		Cw:     []int32{3, 0, 1, 2, 0, 4},
		Ck:     []int64{4, 6},
		LogLik: -12.5,
	}
	var valid bytes.Buffer
	if _, err := m.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(modelMagic))
	f.Add([]byte("WARPLDA\x01"))
	f.Add([]byte{})
	f.Add(valid.Bytes()[:valid.Len()/2])
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[valid.Len()/2] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.V <= 0 || got.Cfg.K <= 0 || len(got.Cw) != got.V*got.Cfg.K || len(got.Ck) != got.Cfg.K {
			t.Fatalf("accepted model has inconsistent dims: V=%d K=%d |Cw|=%d |Ck|=%d",
				got.V, got.Cfg.K, len(got.Cw), len(got.Ck))
		}
		if got.Vocab != nil && len(got.Vocab) != got.V {
			t.Fatalf("accepted model has %d vocabulary entries for V=%d", len(got.Vocab), got.V)
		}
		for i, c := range got.Cw {
			if c < 0 {
				t.Fatalf("accepted model has negative count Cw[%d]=%d", i, c)
			}
		}
		var re bytes.Buffer
		if _, err := got.WriteTo(&re); err != nil {
			t.Fatalf("accepted model does not re-encode: %v", err)
		}
		back, err := ReadModel(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded model does not re-read: %v", err)
		}
		if back.V != got.V || back.Cfg.K != got.Cfg.K || !equalI32(back.Cw, got.Cw) || !equalI64(back.Ck, got.Ck) {
			t.Fatal("model changed across a write/read round trip")
		}
	})
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

func equalI64(a, b []int64) bool {
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

// TestReadModelTruncationFootprint pins the chunked-allocation defense:
// a header claiming the maximum V×K followed by almost no data must
// fail on the read path without committing the claimed gigabytes.
func TestReadModelTruncationFootprint(t *testing.T) {
	// Hand-roll magic + the 40-byte header claiming V=2^16, K=2^15
	// (V×K = 2^31 cells, 8 GiB of int32s) — then stop: the body never
	// arrives.
	var full bytes.Buffer
	full.WriteString(modelMagic)
	le := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		full.Write(b[:])
	}
	le(1 << 16)            // V
	le(1 << 15)            // K
	le(0x3FE0000000000000) // 0.5
	le(0x3F847AE147AE147B) // 0.01
	le(0)                  // logLik 0.0
	if _, err := ReadModel(bytes.NewReader(full.Bytes())); err == nil {
		t.Fatal("truncated 2^31-cell model accepted")
	}
}
