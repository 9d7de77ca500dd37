// Package fsio holds the small file-I/O primitives shared by every
// durable format in this repository (model snapshots, training
// checkpoints): atomic file replacement and checksum-on-read. They live
// in one place so a durability fix lands everywhere at once instead of
// drifting between per-format copies.
package fsio

import (
	"hash"
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

// CRCReader hashes exactly the bytes its consumer reads, so a trailing
// checksum covers the payload regardless of any buffering underneath.
type CRCReader struct {
	R   io.Reader
	CRC hash.Hash32
}

// NewCRCReader returns a CRCReader over r using CRC32 (IEEE), the
// checksum every durable format here trails with.
func NewCRCReader(r io.Reader) *CRCReader {
	return &CRCReader{R: r, CRC: crc32.NewIEEE()}
}

// Read reads from the underlying reader, folding the bytes actually
// delivered into the checksum.
func (c *CRCReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.CRC.Write(p[:n])
	return n, err
}

// Sum32 returns the checksum of everything read so far.
func (c *CRCReader) Sum32() uint32 { return c.CRC.Sum32() }

// CRCWriter hashes exactly the bytes written through it, so a format
// can emit its body through one writer and trail the checksum without
// a second pass.
type CRCWriter struct {
	W   io.Writer
	CRC hash.Hash32
}

// NewCRCWriter returns a CRCWriter over w using CRC32 (IEEE).
func NewCRCWriter(w io.Writer) *CRCWriter {
	return &CRCWriter{W: w, CRC: crc32.NewIEEE()}
}

// Write writes to the underlying writer, folding the bytes actually
// written into the checksum.
func (c *CRCWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.CRC.Write(p[:n])
	return n, err
}

// Sum32 returns the checksum of everything written so far.
func (c *CRCWriter) Sum32() uint32 { return c.CRC.Sum32() }
