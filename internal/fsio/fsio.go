// Package fsio is the one implementation of the convention every
// durable format in this repository follows (docs/FORMATS.md, "Shared
// conventions"): an ASCII magic, a body, and a little-endian CRC32
// (IEEE) trailer over every byte after the magic; length fields the
// trailer has not vouched for yet drive allocations no further than the
// bytes actually read; files land by atomic rename. The formats —
// WARPLDA model snapshots, WARPDLT model deltas (delta.go), WARPCRP
// corpus caches, WARPMANI checkpoint manifests, WARPSHRD checkpoint
// shards and WRPF cluster frames — keep only their headers and payloads
// and call:
//
//   - WriteEnvelope: magic, the body through a CRC, the trailer;
//   - NewReader: the magic, then a Reader that hashes exactly the bytes
//     its consumer reads, and whose Close reads and compares the
//     trailer;
//   - ImageBody and CheckImage: the same checks over an in-memory or
//     mapped image;
//   - ReadSlice: arrays grown as bytes arrive, so a hostile length
//     fails at the end of the input, not at make();
//   - AtomicWriteFile: temp file, fsync, rename, fsync of the directory.
//
// A durability or hostile-input fix therefore lands once, for every
// format.
package fsio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile writes a file via temp-file + fsync + rename + fsync
// of the directory: a process hot-watching path can never observe a
// partial write — it sees the old complete file or the new complete
// file — a crash mid-write leaves the previous file intact, and once it
// returns nil the new name survives a crash too (the rename is in the
// directory, which the second fsync makes durable). pattern names the
// temp file (os.CreateTemp semantics; use a dot-prefix so watchers skip
// it). write's byte count is returned on success.
func AtomicWriteFile(path, pattern string, write func(io.Writer) (int64, error)) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	n, err := write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return n, nil
}

// syncDir fsyncs a directory, making the entries renamed into it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CRCWriter hashes and counts exactly the bytes written through it.
type CRCWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

// NewCRCWriter returns a CRCWriter over w using CRC32 (IEEE).
func NewCRCWriter(w io.Writer) *CRCWriter { return &CRCWriter{w: w} }

// Write writes to the underlying writer, folding the bytes actually
// written into the checksum.
func (c *CRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// Sum32 returns the checksum of everything written so far.
func (c *CRCWriter) Sum32() uint32 { return c.crc }

// WriteEnvelope writes magic, then whatever body writes, through a
// CRC, then the CRC as a little-endian uint32 trailer. It returns the
// bytes written and the CRC (the trailer value, which a checkpoint
// manifest records for each shard). w is written as is: a caller that
// emits many small values buffers it.
func WriteEnvelope(w io.Writer, magic string, body func(io.Writer) error) (int64, uint32, error) {
	if _, err := io.WriteString(w, magic); err != nil {
		return 0, 0, err
	}
	cw := CRCWriter{w: w}
	if err := body(&cw); err != nil {
		return int64(len(magic)) + cw.n, 0, err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return int64(len(magic)) + cw.n, 0, err
	}
	return int64(len(magic)) + cw.n + 4, cw.crc, nil
}

// Reader reads an envelope's body: NewReader has checked the magic,
// Read hashes exactly the bytes its consumer reads (whatever buffering
// sits underneath), and Close reads the trailer and compares.
type Reader struct {
	r   io.Reader
	crc uint32
}

// NewReader reads and checks magic from r and returns a Reader over
// the body that follows. A short read returns the io error unwrapped
// (io.EOF on an empty stream).
func NewReader(r io.Reader, magic string) (*Reader, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, err
	}
	if string(got) != magic {
		return nil, badMagic(got)
	}
	return &Reader{r: r}, nil
}

// Read reads from the underlying reader, folding the bytes delivered
// into the checksum.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Sum32 returns the checksum of the body read so far; after a
// successful Close it is the trailer's value.
func (r *Reader) Sum32() uint32 { return r.crc }

// Close reads the 4-byte trailer that follows the body — without
// hashing it — and fails unless it equals the checksum of every byte
// read through r.
func (r *Reader) Close() error {
	var trailer [4]byte
	if _, err := io.ReadFull(r.r, trailer[:]); err != nil {
		return fmt.Errorf("checksum trailer: %w", err)
	}
	return checkSum(binary.LittleEndian.Uint32(trailer[:]), r.crc)
}

// ImageBody checks the magic of a complete in-memory (or mapped)
// envelope image and returns the body between magic and trailer,
// unhashed — for a reader that validates structure before paying for
// the checksum. CheckImage is ImageBody plus the checksum.
func ImageBody(image []byte, magic string) ([]byte, error) {
	if len(image) < len(magic)+4 {
		return nil, fmt.Errorf("truncated (%d bytes)", len(image))
	}
	if string(image[:len(magic)]) != magic {
		return nil, badMagic(image[:len(magic)])
	}
	return image[len(magic) : len(image)-4], nil
}

// CheckImage checks a complete envelope image — magic, then the CRC32
// trailer over the body — and returns the body. The body is hashed in
// place; a mapped file is not copied.
func CheckImage(image []byte, magic string) ([]byte, error) {
	body, err := ImageBody(image, magic)
	if err != nil {
		return nil, err
	}
	if err := checkSum(binary.LittleEndian.Uint32(image[len(image)-4:]), crc32.ChecksumIEEE(body)); err != nil {
		return nil, err
	}
	return body, nil
}

func badMagic(got []byte) error { return fmt.Errorf("bad magic %q", got) }

func checkSum(file, computed uint32) error {
	if file != computed {
		return fmt.Errorf("checksum mismatch (file %08x, computed %08x): torn or corrupt file", file, computed)
	}
	return nil
}

// AllocChunk is the step, in elements, in which ReadSlice reads and
// first allocates: what a length field the trailer has not vouched for
// can cost beyond the input's real size.
const AllocChunk = 64 << 10

// ReadSlice reads n little-endian values of the fixed-size type T
// (anything encoding/binary decodes) from r. The result grows as bytes
// arrive — one AllocChunk at first, then by doubling, capped at exactly
// n — so a corrupt or hostile n fails at the end of the input having
// allocated at most about twice what the input held, plus one chunk.
func ReadSlice[T any](r io.Reader, n int) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative length %d", n)
	}
	s := make([]T, 0, min(n, AllocChunk))
	for len(s) < n {
		off := len(s)
		c := min(n-off, AllocChunk)
		if cap(s) < off+c {
			s = append(make([]T, 0, min(n, max(2*cap(s), off+c))), s...)
		}
		s = s[:off+c]
		var err error
		if b, ok := any(s[off:]).([]byte); ok {
			_, err = io.ReadFull(r, b)
		} else {
			err = binary.Read(r, binary.LittleEndian, s[off:])
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
