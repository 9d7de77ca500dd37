package corpus

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildTestCache writes c as UCI, streams it into a cache under dir,
// and returns the cache path.
func buildTestCache(t *testing.T, c *Corpus, dir string, opts StreamOptions) string {
	t.Helper()
	var uci bytes.Buffer
	if err := WriteUCI(&uci, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "corpus"+CacheExt)
	info, err := BuildCache(&uci, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.D != c.NumDocs() || info.V != c.V || info.T != c.NumTokens() {
		t.Fatalf("cache info %+v, corpus D=%d V=%d T=%d", info, c.NumDocs(), c.V, c.NumTokens())
	}
	return path
}

// uciDocsEqual compares documents as multisets per doc: WriteUCI
// aggregates counts and sorts words within a doc, so token order within
// a document is id-sorted on both read paths.
func docsEqual(t *testing.T, a, b Provider) {
	t.Helper()
	if a.NumDocs() != b.NumDocs() || a.NumTokens() != b.NumTokens() || a.NumWords() != b.NumWords() {
		t.Fatalf("shape mismatch: D %d/%d T %d/%d V %d/%d",
			a.NumDocs(), b.NumDocs(), a.NumTokens(), b.NumTokens(), a.NumWords(), b.NumWords())
	}
	for d := 0; d < a.NumDocs(); d++ {
		da, db := a.Doc(d), b.Doc(d)
		if len(da) != len(db) {
			t.Fatalf("doc %d: len %d vs %d", d, len(da), len(db))
		}
		for n := range da {
			if da[n] != db[n] {
				t.Fatalf("doc %d token %d: %d vs %d", d, n, da[n], db[n])
			}
		}
	}
}

func TestBuildCacheRoundTrip(t *testing.T) {
	c, err := GenerateLDA(SyntheticConfig{D: 120, V: 300, K: 8, MeanLen: 40, Alpha: 0.1, Beta: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := buildTestCache(t, c, dir, StreamOptions{})

	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// The in-memory reference is the same UCI stream read by ReadUCI.
	var uci bytes.Buffer
	if err := WriteUCI(&uci, c); err != nil {
		t.Fatal(err)
	}
	mem, err := ReadUCI(&uci)
	if err != nil {
		t.Fatal(err)
	}

	docsEqual(t, mem, mc)
	if mc.Vocabulary() != nil {
		t.Error("mapped corpus should carry no vocabulary")
	}
	// The header fingerprint must equal the O(T) walk of either view —
	// that equality is what makes checkpoints portable between the
	// in-memory and mapped paths.
	if got, want := mc.CorpusFingerprint(), Fingerprint(mem); got != want {
		t.Errorf("mapped fingerprint %08x, in-memory walk %08x", got, want)
	}
	if got, want := FingerprintOf(mc), Fingerprint(mc); got != want {
		t.Errorf("FingerprintOf fast path %08x, walk of mapped docs %08x", got, want)
	}
	if err := ValidateProvider(mc); err != nil {
		t.Errorf("ValidateProvider(mapped): %v", err)
	}
	if got := StatsOf(mc); got != mem.Stats() {
		t.Errorf("StatsOf(mapped) = %v, want %v", got, mem.Stats())
	}
}

func TestBuildCacheBoundedBuffers(t *testing.T) {
	// A budget far below the corpus size must still work: the bound is
	// on buffers (floored at 64 KiB each), with spills absorbing the
	// overflow through many flushes.
	c, err := GenerateLDA(SyntheticConfig{D: 200, V: 150, K: 4, MeanLen: 60, Alpha: 0.1, Beta: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTokens()*4 < 1<<14 {
		t.Fatalf("corpus too small to exercise spilling: %d tokens", c.NumTokens())
	}
	dir := t.TempDir()
	path := buildTestCache(t, c, dir, StreamOptions{MaxResidentBytes: 1})
	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	var uci bytes.Buffer
	if err := WriteUCI(&uci, c); err != nil {
		t.Fatal(err)
	}
	mem, err := ReadUCI(&uci)
	if err != nil {
		t.Fatal(err)
	}
	docsEqual(t, mem, mc)
	// Spill files must not outlive the build.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "warpcorpus-") {
			t.Errorf("leftover spill file %s", e.Name())
		}
	}
}

// TestBuildCacheAllocatesItsBuffers bounds what one cache build
// allocates under default options: three write buffers of at most
// 1 MiB, the parser's 1 MiB line buffer and the longest document, with
// 1 MiB to spare, however large the corpus. Buffers sized by the
// default budget instead (16 MiB each) break it several times over.
func TestBuildCacheAllocatesItsBuffers(t *testing.T) {
	c := GenerateZipf(2000, 5000, 100, 1.0, 4)
	var uci bytes.Buffer
	if err := WriteUCI(&uci, c); err != nil {
		t.Fatal(err)
	}
	path, size := filepath.Join(t.TempDir(), "corpus"+CacheExt), uci.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildCache(&uci, path, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const want = 5 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("BuildCache of %d tokens (%d UCI bytes) allocated %d bytes", c.NumTokens(), size, got)
	if got > want {
		t.Errorf("BuildCache allocated %d bytes under default options, want <= %d", got, want)
	}
}

func TestBuildCacheEmptyAndGappyDocs(t *testing.T) {
	// Docs 2 and 5 (1-based) have no entries; trailing doc 6 is empty
	// too. The offsets section must give them zero-length views.
	uci := "6\n4\n4\n1 1 2\n3 2 1\n4 1 1\n4 4 3\n"
	path := filepath.Join(t.TempDir(), "gappy"+CacheExt)
	if _, err := BuildCache(strings.NewReader(uci), path, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mem, err := ReadUCI(strings.NewReader(uci))
	if err != nil {
		t.Fatal(err)
	}
	docsEqual(t, mem, mc)
	for _, d := range []int{1, 4, 5} {
		if len(mc.Doc(d)) != 0 {
			t.Errorf("doc %d should be empty, has %d tokens", d, len(mc.Doc(d)))
		}
	}
}

func TestBuildCacheRejectsUnsortedDocs(t *testing.T) {
	uci := "3\n4\n3\n2 1 1\n1 2 1\n3 1 1\n"
	_, err := BuildCache(strings.NewReader(uci), filepath.Join(t.TempDir(), "x"+CacheExt), StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("want non-decreasing doc id error, got %v", err)
	}
}

func TestBuildCacheFailureLeavesNoCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad"+CacheExt)
	// NNZ mismatch fails the parse after spilling began.
	if _, err := BuildCache(strings.NewReader("2\n4\n5\n1 1 1\n2 2 1\n"), path, StreamOptions{}); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed build left a cache file behind (stat err %v)", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		t.Errorf("failed build left %s behind", e.Name())
	}
}

// rewriteTrailer recomputes the CRC trailer after a test doctored the
// body, so validation failures past the checksum can be exercised.
func rewriteTrailer(data []byte) {
	crc := crc32.ChecksumIEEE(data[8 : len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
}

func TestOpenMappedCorruption(t *testing.T) {
	c, err := GenerateLDA(SyntheticConfig{D: 30, V: 50, K: 4, MeanLen: 20, Alpha: 0.1, Beta: 0.01, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	goodPath := buildTestCache(t, c, t.TempDir(), StreamOptions{})
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	d := c.NumDocs()

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"truncated to empty", func(b []byte) []byte { return b[:0] }, "truncated"},
		{"truncated mid-header", func(b []byte) []byte { return b[:20] }, "truncated"},
		{"truncated mid-offsets", func(b []byte) []byte { return b[:cacheHeaderSize+24] }, "geometry"},
		{"truncated below minimum", func(b []byte) []byte { return b[:cacheHeaderSize+9] }, "truncated"},
		{"truncated before trailer", func(b []byte) []byte { return b[:len(b)-5] }, "geometry"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"stale format version", func(b []byte) []byte { b[7] = 0x02; return b }, "bad magic"},
		{"flipped token byte", func(b []byte) []byte {
			b[cacheHeaderSize+(d+1)*8] ^= 0xFF
			return b
		}, "checksum mismatch"},
		{"flipped trailer byte", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }, "checksum mismatch"},
		{"implausible header D", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<62)
			rewriteTrailer(b)
			return b
		}, "implausible"},
		{"zero V", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 0)
			rewriteTrailer(b)
			return b
		}, "implausible"},
		{"geometry mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			rewriteTrailer(b)
			return b
		}, "geometry"},
		{"decreasing offsets", func(b []byte) []byte {
			// Swap offsets[1] up past offsets[2] with a valid CRC: caught
			// only by the monotonicity check.
			binary.LittleEndian.PutUint64(b[cacheHeaderSize+8:], uint64(c.NumTokens())+1)
			rewriteTrailer(b)
			return b
		}, "offsets"},
		{"token out of vocabulary", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[cacheHeaderSize+(d+1)*8:], uint32(c.V))
			rewriteTrailer(b)
			return b
		}, "out of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.corrupt(append([]byte(nil), good...))
			path := filepath.Join(t.TempDir(), "corrupt"+CacheExt)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenMapped(path)
			if err == nil {
				t.Fatal("corrupt cache opened successfully")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The undoctored file must still open (guards the cases above
	// against accidentally relying on a broken baseline).
	mc, err := OpenMapped(goodPath)
	if err != nil {
		t.Fatalf("pristine cache failed to open: %v", err)
	}
	mc.Close()
}

func TestMappedCloseIdempotent(t *testing.T) {
	c := &Corpus{V: 3, Docs: [][]int32{{0, 1}, {2}}}
	path := buildTestCache(t, c, t.TempDir(), StreamOptions{})
	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCachePathFor(t *testing.T) {
	if got, want := CachePathFor("/data/nytimes.uci", ""), "/data/nytimes.uci.warpcorpus"; got != want {
		t.Errorf("CachePathFor default dir = %q, want %q", got, want)
	}
	if got, want := CachePathFor("/data/nytimes.uci", "/ssd/cache"), "/ssd/cache/nytimes.uci.warpcorpus"; got != want {
		t.Errorf("CachePathFor explicit dir = %q, want %q", got, want)
	}
}

func TestMaterialize(t *testing.T) {
	c := tinyCorpus()
	if got := Materialize(c); got != c {
		t.Error("Materialize(*Corpus) should return the same pointer")
	}
	path := buildTestCache(t, c, t.TempDir(), StreamOptions{})
	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mat := Materialize(mc)
	docsEqual(t, mc, mat)
	if err := mat.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamUCIMatchesMaterialized pins the lda-gen -uci contract: the
// two-pass streaming generators emit byte-identical UCI to WriteUCI
// over the materialized corpus of the same configuration.
func TestStreamUCIMatchesMaterialized(t *testing.T) {
	cfg := SyntheticConfig{D: 80, V: 120, K: 6, MeanLen: 30, Alpha: 0.1, Beta: 0.01, Seed: 13}

	var streamed bytes.Buffer
	st, err := StreamLDAUCI(&streamed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := GenerateLDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mat bytes.Buffer
	if err := WriteUCI(&mat, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), mat.Bytes()) {
		t.Fatal("StreamLDAUCI output differs from WriteUCI(GenerateLDA)")
	}
	if st != c.Stats() {
		t.Errorf("streamed stats %v, materialized %v", st, c.Stats())
	}

	streamed.Reset()
	if _, err := StreamZipfUCI(&streamed, 60, 90, 25, 1.1, 5); err != nil {
		t.Fatal(err)
	}
	z := GenerateZipf(60, 90, 25, 1.1, 5)
	mat.Reset()
	if err := WriteUCI(&mat, z); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), mat.Bytes()) {
		t.Fatal("StreamZipfUCI output differs from WriteUCI(GenerateZipf)")
	}

	// A streamed corpus must flow through the whole -stream pipeline:
	// UCI → cache → mapped view equal to the in-memory read.
	path := filepath.Join(t.TempDir(), "gen"+CacheExt)
	if _, err := BuildCache(bytes.NewReader(streamed.Bytes()), path, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mem, err := ReadUCI(bytes.NewReader(streamed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	docsEqual(t, mem, mc)

	// Invalid config must surface from the streaming path too.
	if _, err := StreamLDAUCI(&streamed, SyntheticConfig{}); err == nil {
		t.Fatal("StreamLDAUCI accepted an invalid config")
	}
}
