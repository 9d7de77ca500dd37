package warplda

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func trainedModel(t *testing.T, withVocab bool) (*Corpus, *Model) {
	t.Helper()
	var c *Corpus
	if withVocab {
		c = FromText([]string{
			"alpha beta gamma alpha beta",
			"gamma delta alpha beta gamma",
			"stock bond yield stock bond",
			"bond yield stock yield bond",
		}, TokenizeOptions{})
	} else {
		c = apiCorpus(t)
	}
	m, err := Train(c, Defaults(3), 15)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestModelRoundTrip(t *testing.T) {
	_, m := trainedModel(t, true)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.V != m.V || got.Cfg.K != m.Cfg.K {
		t.Fatalf("dims changed: %d/%d vs %d/%d", got.V, got.Cfg.K, m.V, m.Cfg.K)
	}
	if got.Cfg.Alpha != m.Cfg.Alpha || got.Cfg.Beta != m.Cfg.Beta || got.LogLik != m.LogLik {
		t.Fatal("hyper-parameters or logLik changed")
	}
	if !reflect.DeepEqual(got.Cw, m.Cw) || !reflect.DeepEqual(got.Ck, m.Ck) {
		t.Fatal("counts changed")
	}
	if !reflect.DeepEqual(got.Vocab, m.Vocab) {
		t.Fatal("vocab changed")
	}
	// The deserialized model behaves identically.
	if !reflect.DeepEqual(got.TopWords(0, 3), m.TopWords(0, 3)) {
		t.Fatal("TopWords diverges after round trip")
	}
}

func TestModelRoundTripNoVocab(t *testing.T) {
	_, m := trainedModel(t, false)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vocab != nil {
		t.Fatal("vocab materialized from nothing")
	}
	if !reflect.DeepEqual(got.Cw, m.Cw) {
		t.Fatal("counts changed")
	}
}

// TestReadModelLegacyV1 pins the refusal of the pre-checksum layout. A
// v1 file is a v2 file under version byte 1 and without the trailer;
// even a well-formed one is rejected, by name, because nothing in it
// could show that it is well-formed.
func TestReadModelLegacyV1(t *testing.T) {
	_, m := trainedModel(t, true)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("WARPLDA\x01"), buf.Bytes()[len(modelMagic):buf.Len()-4]...)
	_, err := ReadModel(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "pre-checksum v1 snapshot") {
		t.Fatalf("v1 file: err = %v, want the named v1 rejection", err)
	}
}

// TestReadModelCorruption feeds ReadModel every corruption class the
// serving registry must survive on hot reload: each case must return a
// descriptive error — never a panic, never a silently-broken model.
func TestReadModelCorruption(t *testing.T) {
	_, m := trainedModel(t, true)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	nanPhi := func() []byte {
		// A NaN β poisons every Φ̂_wk = (C_wk+β)/(C_k+β̄) entry. Written
		// through WriteTo so the checksum is valid: validation, not the
		// CRC, must catch it.
		bad := *m
		bad.Cfg.Beta = math.NaN()
		var nb bytes.Buffer
		if _, err := bad.WriteTo(&nb); err != nil {
			t.Fatal(err)
		}
		return nb.Bytes()
	}
	negCount := func() []byte {
		bad := *m
		bad.Cw = append([]int32(nil), m.Cw...)
		bad.Cw[3] = -7
		var nb bytes.Buffer
		if _, err := bad.WriteTo(&nb); err != nil {
			t.Fatal(err)
		}
		return nb.Bytes()
	}

	cases := map[string]struct {
		in      []byte
		errWant string // substring the error must contain
	}{
		"empty":            {nil, "reading model header"},
		"bad magic":        {[]byte("NOTAMODELXXXXXXXXXXXXXXXXXXXXXXX"), "bad magic"},
		"magic only":       {[]byte(modelMagic), "reading model header"},
		"truncated header": {good[:12], "reading model header"},
		"truncated counts": {good[:len(modelMagic)+40+6], "reading counts"},
		"missing trailer":  {good[:len(good)-4], ""},
		"checksum mismatch": {corrupt(func(b []byte) []byte {
			b[len(modelMagic)+40+2] ^= 0x40 // flip a bit inside Cw
			return b
		}), "checksum mismatch"},
		"huge dims": {corrupt(func(b []byte) []byte {
			for i := len(modelMagic); i < len(modelMagic)+8; i++ {
				b[i] = 0xff
			}
			return b
		}), "implausible model dims"},
		"NaN in phi":     {nanPhi(), "Φ̂ would be NaN"},
		"negative count": {negCount(), "negative word-topic count"},
	}
	for name, tc := range cases {
		got, err := ReadModel(bytes.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted (model V=%d K=%d)", name, got.V, got.Cfg.K)
			continue
		}
		if tc.errWant != "" && !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.errWant)
		}
	}
}

func TestWriteToReportsSize(t *testing.T) {
	_, m := trainedModel(t, true)
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
}

func TestSplitPartitionsDocs(t *testing.T) {
	c := apiCorpus(t)
	train, test := Split(c, 0.25, 9)
	if train.NumDocs()+test.NumDocs() != c.NumDocs() {
		t.Fatal("split lost documents")
	}
	if test.NumDocs() == 0 || train.NumDocs() == 0 {
		t.Fatal("degenerate split")
	}
	if train.V != c.V || test.V != c.V {
		t.Fatal("split changed V")
	}
	// Deterministic.
	tr2, te2 := Split(c, 0.25, 9)
	if tr2.NumDocs() != train.NumDocs() || te2.NumDocs() != test.NumDocs() {
		t.Fatal("split not deterministic")
	}
}

func TestHeldOutPerplexity(t *testing.T) {
	c, err := GenerateLDA(SyntheticConfig{D: 400, V: 300, K: 5, MeanLen: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	train, test := Split(c, 0.2, 3)
	trained, err := Train(train, Defaults(5), 40)
	if err != nil {
		t.Fatal(err)
	}
	ppl := trained.HeldOutPerplexity(test.Docs, 10, 5)
	if math.IsNaN(ppl) || ppl <= 1 {
		t.Fatalf("implausible perplexity %g", ppl)
	}
	// A trained model must beat an untrained one on held-out data.
	untrained, err := Train(train, Defaults(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	pplU := untrained.HeldOutPerplexity(test.Docs, 10, 5)
	if ppl >= pplU {
		t.Fatalf("trained ppl %g not below untrained %g", ppl, pplU)
	}
	// And both must beat the uniform bound V.
	if ppl >= float64(c.V) {
		t.Fatalf("trained ppl %g above uniform bound %d", ppl, c.V)
	}
	if inf := trained.HeldOutPerplexity(nil, 5, 1); !math.IsInf(inf, 1) {
		t.Fatal("no-docs perplexity not +inf")
	}
}

// ReadModel allocates Cw once when it reads a file that holds it, and
// grows it with its bytes when the reader cannot tell its size; either
// way the counts arrive intact.
func TestReadModelAllocatesCwOnce(t *testing.T) {
	const v, k = 256, 1024
	m := &Model{Cfg: Config{K: k, Alpha: 0.1, Beta: 0.01}, V: v, Cw: make([]int32, v*k), Ck: make([]int64, k)}
	for i := range m.Cw {
		if i%7 == 0 {
			m.Cw[i] = int32(i % 5)
			m.Ck[i%k] += int64(i % 5)
		}
	}
	path := filepath.Join(t.TempDir(), "m.bin")
	if _, err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	read := func(wrap func(*os.File) io.Reader) (*Model, uint64) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadModel(wrap(f))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cw, m.Cw) || !reflect.DeepEqual(got.Ck, m.Ck) {
			t.Fatal("counts changed across a write/read round trip")
		}
		return got, after.TotalAlloc - before.TotalAlloc
	}
	cw := uint64(4 * v * k)
	got, alloc := read(func(f *os.File) io.Reader { return f })
	t.Logf("from a file: %d bytes allocated for a %d-byte Cw", alloc, cw)
	if cap(got.Cw) != v*k || alloc > cw+cw/4 {
		t.Errorf("from a file: cap(Cw) = %d, %d bytes allocated; want %d and about %d", cap(got.Cw), alloc, v*k, cw)
	}
	_, alloc = read(func(f *os.File) io.Reader { return io.MultiReader(f) })
	t.Logf("from a reader of unknown size: %d bytes allocated", alloc)
}
