package corpus

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"

	"warplda/internal/fsio"
)

// MappedCorpus is a read-only corpus view over a memory-mapped
// .warpcorpus cache file (see stream.go for the layout). The flattened
// token array and doc-boundary offsets live in page cache — the kernel
// pages them in on access and evicts them under pressure — so training
// memory no longer scales with corpus size for the corpus itself.
//
// It implements Provider (Doc returns a zero-copy slice into the
// mapping) and Fingerprinted (the identity hash checkpoints bind to is
// read from the header, computed once at BuildCache time). All
// validation — CRC32 trailer, section geometry, offset monotonicity,
// token bounds — happens in OpenMapped, so consumers can index freely.
//
// The typed views reinterpret the mapping in native byte order; the
// format is little-endian, matching every platform this repository
// targets (a big-endian host is rejected at open rather than silently
// mis-decoding).
type MappedCorpus struct {
	mapping []byte
	closer  func() error

	d, t        int
	v           int
	offsets     []int64 // D+1 token indices
	tokens      []int32 // T word ids, doc-major
	fingerprint uint32
	path        string
}

// OpenMapped maps a .warpcorpus cache read-only and fully validates it:
// magic and geometry, the CRC32 trailer (one sequential pass, which
// also warms the page cache), monotone doc offsets, and token word-id
// bounds. A file failing any check is unusable — the error says why.
func OpenMapped(path string) (*MappedCorpus, error) {
	if !littleEndianHost() {
		return nil, fmt.Errorf("corpus: %s: mapped corpora require a little-endian host", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < cacheHeaderSize+8+4 {
		f.Close()
		return nil, fmt.Errorf("corpus: %s: truncated cache (%d bytes)", path, size)
	}
	data, closer, err := mapFile(f, size)
	f.Close() // the mapping (or fallback copy) outlives the descriptor
	if err != nil {
		return nil, err
	}
	mc, err := newMapped(data, path)
	if err != nil {
		closer()
		return nil, err
	}
	mc.closer = closer
	return mc, nil
}

// newMapped validates a complete in-memory (or mapped) cache image and
// builds the typed views.
func newMapped(data []byte, path string) (*MappedCorpus, error) {
	fail := func(format string, args ...any) (*MappedCorpus, error) {
		return nil, fmt.Errorf("corpus: %s: %s", path, fmt.Sprintf(format, args...))
	}
	if len(data) < cacheHeaderSize+8+4 {
		return fail("truncated cache (%d bytes)", len(data))
	}
	body, err := fsio.ImageBody(data, cacheMagic)
	if err != nil {
		return fail("not a .warpcorpus cache: %v", err)
	}
	d64 := binary.LittleEndian.Uint64(body[0:])
	v64 := binary.LittleEndian.Uint64(body[8:])
	t64 := binary.LittleEndian.Uint64(body[16:])
	fp64 := binary.LittleEndian.Uint64(body[24:])
	const maxDim = math.MaxInt64 / 8
	if d64 > maxDim || t64 > maxDim || v64 == 0 || v64 > math.MaxInt32 || fp64 > math.MaxUint32 {
		return fail("implausible header D=%d V=%d T=%d fp=%#x", d64, v64, t64, fp64)
	}
	d, v, t := int(d64), int(v64), int(t64)
	want := int64(cacheHeaderSize) + int64(d+1)*8 + int64(t)*4 + 4
	if int64(len(data)) != want {
		return fail("cache is %d bytes, header geometry wants %d (D=%d T=%d)", len(data), want, d, t)
	}
	// The geometry holds, so the checksum pass over the mapping (which
	// also warms the page cache) covers exactly the sections below.
	if _, err := fsio.CheckImage(data, cacheMagic); err != nil {
		return fail("%v", err)
	}

	offBytes := data[cacheHeaderSize : cacheHeaderSize+(d+1)*8]
	tokBytes := data[cacheHeaderSize+(d+1)*8 : len(data)-4]
	offsets := unsafe.Slice((*int64)(unsafe.Pointer(&offBytes[0])), d+1)
	var tokens []int32
	if t > 0 {
		tokens = unsafe.Slice((*int32)(unsafe.Pointer(&tokBytes[0])), t)
	}

	if offsets[0] != 0 || offsets[d] != int64(t) {
		return fail("doc offsets do not span the token array ([%d,%d] vs T=%d)", offsets[0], offsets[d], t)
	}
	for i := 0; i < d; i++ {
		if offsets[i] > offsets[i+1] {
			return fail("doc offsets decrease at doc %d (%d > %d)", i, offsets[i], offsets[i+1])
		}
	}
	for i, w := range tokens {
		if w < 0 || int(w) >= v {
			return fail("token %d: word id %d out of [0,%d)", i, w, v)
		}
	}

	return &MappedCorpus{
		mapping: data, d: d, v: v, t: t,
		offsets: offsets, tokens: tokens,
		fingerprint: uint32(fp64), path: path,
	}, nil
}

// NumDocs implements Provider.
func (m *MappedCorpus) NumDocs() int { return m.d }

// NumTokens implements Provider.
func (m *MappedCorpus) NumTokens() int { return m.t }

// NumWords implements Provider.
func (m *MappedCorpus) NumWords() int { return m.v }

// Doc implements Provider: a zero-copy view into the mapping, invalid
// after Close.
func (m *MappedCorpus) Doc(d int) []int32 {
	return m.tokens[m.offsets[d]:m.offsets[d+1]]
}

// Vocabulary implements Provider; caches carry no vocabulary (load one
// separately with ReadVocab when needed).
func (m *MappedCorpus) Vocabulary() []string { return nil }

// CorpusFingerprint implements Fingerprinted: the checkpoint-binding
// identity hash, read from the validated header in O(1).
func (m *MappedCorpus) CorpusFingerprint() uint32 { return m.fingerprint }

// Validate implements the optional ValidateProvider fast path: every
// invariant was checked when the cache was opened.
func (m *MappedCorpus) Validate() error { return nil }

// Stats returns the Table-3 style summary.
func (m *MappedCorpus) Stats() Stats { return StatsOf(m) }

// Path returns the cache file the corpus is mapped from.
func (m *MappedCorpus) Path() string { return m.path }

// Info returns the cache metadata.
func (m *MappedCorpus) Info() CacheInfo {
	return CacheInfo{D: m.d, V: m.v, T: m.t, Fingerprint: m.fingerprint, Path: m.path}
}

// Close unmaps the cache. Doc views obtained earlier become invalid.
func (m *MappedCorpus) Close() error {
	if m.closer == nil {
		return nil
	}
	c := m.closer
	m.closer = nil
	m.mapping, m.offsets, m.tokens = nil, nil, nil
	return c()
}

// littleEndianHost reports whether the native integer layout matches
// the on-disk format, which the unsafe typed views require.
func littleEndianHost() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
