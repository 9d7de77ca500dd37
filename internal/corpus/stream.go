// Streaming out-of-core ingestion: BuildCache parses a UCI docword file
// in bounded memory and produces a .warpcorpus binary cache that
// OpenMapped (mmapped.go) maps read-only, so a corpus larger than RAM
// trains out of page cache instead of heap.
//
// The .warpcorpus layout (all integers little-endian):
//
//	offset 0   magic   "WARPCRP\x01"                    (8 bytes)
//	offset 8   header  u64 D, u64 V, u64 T, u64 fingerprint (32 bytes)
//	offset 40  offsets (D+1) × u64   token index of each doc's start
//	...        tokens  T × i32       flattened word ids, doc-major
//	trailer    u32 CRC32 (IEEE) over every byte after the magic
//
// (the fsio envelope: fsio.WriteEnvelope writes it, fsio.CheckImage
// checks the mapped image in place).
//
// The sections are 8-byte aligned so the mapped file can be viewed
// directly as []int64 / []int32. The fingerprint field is the exact
// corpus-identity hash checkpoints bind to (fingerprint.go), computed
// during ingestion — a training run resumed against the mapped cache
// validates this one header word instead of re-reading the source file.
package corpus

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"warplda/internal/fsio"
)

const (
	// cacheMagic versions the .warpcorpus layout.
	cacheMagic = "WARPCRP\x01"
	// cacheHeaderSize is magic + D + V + T + fingerprint.
	cacheHeaderSize = 8 + 4*8
	// CacheExt is the canonical cache file extension.
	CacheExt = ".warpcorpus"
)

// StreamOptions tunes BuildCache.
type StreamOptions struct {
	// MaxResidentBytes caps the builder's write buffers: the two spill
	// writers and the writer that assembles the cache each take a
	// quarter of it, but never more than 1 MiB (a larger buffer saves
	// no write worth its allocation) nor less than 64 KiB. <= 0 means
	// no cap: three 1 MiB buffers. The cap is on buffers, not total
	// process memory: the parse also holds its 1 MiB line buffer and
	// one document's tokens at a time, so the effective floor is the
	// longest document.
	MaxResidentBytes int64
	// TmpDir receives the spill files; "" means the cache file's
	// directory (keeping spills on the same filesystem as the result).
	TmpDir string
}

// CacheInfo summarizes a built or opened cache.
type CacheInfo struct {
	D, V, T     int
	Fingerprint uint32
	Path        string
}

// Stats returns the Table-3 style summary.
func (ci CacheInfo) Stats() Stats { return newStats(ci.D, ci.T, ci.V) }

// BuildCache streams a UCI docword file into a .warpcorpus cache at
// cachePath. Memory stays bounded (StreamOptions.MaxResidentBytes)
// regardless of corpus size: tokens and doc-boundary offsets are
// spilled to temporary files as they are parsed, then assembled into
// the final cache — header, offsets, tokens, CRC32 trailer — through
// fsio.AtomicWriteFile, so a crash mid-build can never leave a partial
// cache behind.
//
// The docword entries must carry non-decreasing document ids (the order
// UCI distributions ship in). That restriction is what makes one-pass
// bounded-memory ingestion possible — and it guarantees the flattened
// token order equals ReadUCI's in-memory order, so mapped and
// materialized training runs are bit-identical. A decreasing doc id is
// an error naming the offending line's doc pair.
func BuildCache(docword io.Reader, cachePath string, opts StreamOptions) (*CacheInfo, error) {
	bufSize := 1 << 20
	if b := opts.MaxResidentBytes / 4; opts.MaxResidentBytes > 0 && b < int64(bufSize) {
		bufSize = max(int(b), 1<<16)
	}
	tmpDir := opts.TmpDir
	if tmpDir == "" {
		tmpDir = filepath.Dir(cachePath)
	}

	tokSpill, err := newSpill(tmpDir, "warpcorpus-tokens-*", bufSize)
	if err != nil {
		return nil, err
	}
	defer tokSpill.cleanup()
	offSpill, err := newSpill(tmpDir, "warpcorpus-offsets-*", bufSize)
	if err != nil {
		return nil, err
	}
	defer offSpill.cleanup()

	var (
		hasher  *FPHasher
		doc     []int32 // current document's tokens
		curDoc  int     // 1-based id of the document being accumulated
		nDocs   int
		nTokens int64
	)
	// closeDoc flushes the accumulated document (and any empty documents
	// before upto) into the spills and the fingerprint.
	closeDoc := func(upto int) error {
		for curDoc < upto {
			if err := offSpill.putU64(uint64(nTokens)); err != nil {
				return err
			}
			hasher.AddDoc(doc)
			for _, w := range doc {
				if err := tokSpill.putI32(w); err != nil {
					return err
				}
			}
			nTokens += int64(len(doc))
			doc = doc[:0]
			curDoc++
		}
		return nil
	}

	hdr, err := scanUCI(docword,
		func(h uciHeader) error {
			hasher = NewFPHasher(h.W, h.D)
			nDocs = h.D
			curDoc = 1
			return nil
		},
		func(d, word, count int) error {
			if d < curDoc {
				return fmt.Errorf("corpus: BuildCache needs non-decreasing doc ids, got %d after %d (sort the docword file or use the in-memory reader)", d, curDoc)
			}
			if d > curDoc {
				if err := closeDoc(d); err != nil {
					return err
				}
			}
			for i := 0; i < count; i++ {
				doc = append(doc, int32(word-1))
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Flush the final document and any trailing empty ones, then the
	// terminating offset.
	if err := closeDoc(nDocs + 1); err != nil {
		return nil, err
	}
	if err := offSpill.putU64(uint64(nTokens)); err != nil {
		return nil, err
	}
	if err := tokSpill.finish(); err != nil {
		return nil, err
	}
	if err := offSpill.finish(); err != nil {
		return nil, err
	}

	info := &CacheInfo{D: nDocs, V: hdr.W, T: int(nTokens), Fingerprint: hasher.Sum32(), Path: cachePath}

	// Assemble: header, offsets spill, tokens spill, CRC trailer — one
	// sequential copy into an atomically renamed file.
	_, err = fsio.AtomicWriteFile(cachePath, ".warpcorpus-*", func(w io.Writer) (int64, error) {
		return writeCacheFile(w, info, offSpill.path, tokSpill.path, bufSize)
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// writeCacheFile emits the full .warpcorpus stream: magic, header,
// offsets section, tokens section, CRC trailer (hash over everything
// after the magic).
func writeCacheFile(w io.Writer, info *CacheInfo, offPath, tokPath string, bufSize int) (int64, error) {
	bw := bufio.NewWriterSize(w, bufSize)
	n, _, err := fsio.WriteEnvelope(bw, cacheMagic, func(w io.Writer) error {
		var hdr [32]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(info.D))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(info.V))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(info.T))
		binary.LittleEndian.PutUint64(hdr[24:], uint64(info.Fingerprint))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if err := copySpill(w, offPath, int64(info.D+1)*8); err != nil {
			return err
		}
		return copySpill(w, tokPath, int64(info.T)*4)
	})
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// copySpill streams a spill file into w, insisting on the expected size
// (a short spill would silently corrupt the section layout).
func copySpill(w io.Writer, path string, want int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := io.Copy(w, f)
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("corpus: spill %s holds %d bytes, want %d", filepath.Base(path), n, want)
	}
	return nil
}

// spill is a buffered sequential writer over a temp file.
type spill struct {
	f    *os.File
	bw   *bufio.Writer
	path string
	buf  [8]byte
	done bool
}

func newSpill(dir, pattern string, bufSize int) (*spill, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &spill{f: f, bw: bufio.NewWriterSize(f, bufSize), path: f.Name()}, nil
}

func (s *spill) putI32(v int32) error {
	binary.LittleEndian.PutUint32(s.buf[:4], uint32(v))
	_, err := s.bw.Write(s.buf[:4])
	return err
}

func (s *spill) putU64(v uint64) error {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	_, err := s.bw.Write(s.buf[:])
	return err
}

// finish flushes and closes the spill, keeping the file for assembly.
func (s *spill) finish() error {
	if s.done {
		return nil
	}
	s.done = true
	err := s.bw.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cleanup closes (if needed) and deletes the spill file.
func (s *spill) cleanup() {
	if !s.done {
		s.done = true
		s.f.Close()
	}
	os.Remove(s.path)
}

// CachePathFor returns the conventional cache file path for a source
// docword file: <dir>/<base(source)>.warpcorpus, with dir defaulting to
// the source's own directory when cacheDir is empty.
func CachePathFor(sourcePath, cacheDir string) string {
	dir := cacheDir
	if dir == "" {
		dir = filepath.Dir(sourcePath)
	}
	return filepath.Join(dir, filepath.Base(sourcePath)+CacheExt)
}
