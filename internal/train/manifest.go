// Sharded checkpoint format. A sampler implementing sampler.Sharded
// (the distributed sampler) does not funnel its state through one
// writer: each worker's shard lands in its own WARPSHRD file, written
// concurrently, and a WARPMANI manifest — written last, atomically —
// binds them into one checkpoint. The manifest carries the same
// envelope as a WARPCKPT file plus a shard table (file name, size,
// CRC32 of every shard), so resume can validate every shard against
// the manifest before any state reaches the sampler: a truncated,
// bit-rotted, or foreign shard file (swapped in from another
// checkpoint, even a self-consistent one) is rejected by the table,
// not discovered mid-restore.
//
// On-disk layout of one sharded checkpoint at iteration I inside a
// checkpoint directory:
//
//	checkpoint-0000000I/
//	    shard-000.ckpt      WARPSHRD: shard 0's state, CRC-trailed
//	    ...
//	    shard-NNN.ckpt
//	    manifest.ckpt       WARPMANI: envelope + shard table, CRC-trailed
//
// The manifest's atomic rename is the checkpoint's commit point: a
// crash mid-write leaves a directory without a manifest, which Load
// ignores and the next retention sweep removes. Single-file samplers
// use iteration-stamped WARPCKPT files (checkpoint-0000000I.ckpt) in
// the same directory; both shapes rotate under the keep-last-N policy.
// Byte-level specifications live in docs/FORMATS.md.
package train

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"warplda/internal/fsio"
	"warplda/internal/sampler"
)

const (
	// manifestMagic versions the sharded-checkpoint manifest layout.
	manifestMagic = "WARPMANI\x01"
	// shardMagic versions the per-worker shard file layout.
	shardMagic = "WARPSHRD\x01"
	// ManifestFileName is the manifest's name inside a sharded
	// checkpoint directory; its presence is what marks the directory as
	// a complete checkpoint.
	ManifestFileName = "manifest.ckpt"
	// maxShards bounds the decoded shard count before the CRC trailer
	// has vouched for it (same rationale as maxTracePoints).
	maxShards = 1 << 16
)

// stampedPrefix + 8-digit zero-padded iteration is the naming scheme of
// retained checkpoints: checkpoint-00000042.ckpt (single file) and
// checkpoint-00000042/ (sharded directory).
const stampedPrefix = "checkpoint-"

var stampedRE = regexp.MustCompile(`^checkpoint-(\d{8,})(\.ckpt)?$`)

// stampedName returns the single-file checkpoint name for iteration i.
func stampedName(iter int) string { return fmt.Sprintf("%s%08d.ckpt", stampedPrefix, iter) }

// stampedDirName returns the sharded checkpoint directory name for
// iteration i.
func stampedDirName(iter int) string { return fmt.Sprintf("%s%08d", stampedPrefix, iter) }

// shardFileName returns shard i's file name inside a checkpoint
// directory.
func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.ckpt", i) }

// CheckpointEntry is one retained checkpoint found in a checkpoint
// directory.
type CheckpointEntry struct {
	// Iter is the iteration the checkpoint was written at.
	Iter int
	// Path is the checkpoint file (single-file) or directory (sharded).
	Path string
	// Sharded reports the directory shape.
	Sharded bool
}

// ListCheckpoints returns dir's iteration-stamped checkpoints sorted by
// iteration (oldest first). Sharded directories count only when their
// manifest exists — a directory without one is a torn write, not a
// checkpoint. The legacy unstamped DefaultFileName is not listed; Load
// falls back to it when nothing stamped exists.
func ListCheckpoints(dir string) ([]CheckpointEntry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []CheckpointEntry
	for _, de := range des {
		m := stampedRE.FindStringSubmatch(de.Name())
		if m == nil {
			continue
		}
		iter, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		path := filepath.Join(dir, de.Name())
		switch {
		case de.IsDir() && m[2] == "":
			if _, err := os.Stat(filepath.Join(path, ManifestFileName)); err != nil {
				continue // torn: no manifest
			}
			out = append(out, CheckpointEntry{Iter: iter, Path: path, Sharded: true})
		case !de.IsDir() && m[2] == ".ckpt":
			out = append(out, CheckpointEntry{Iter: iter, Path: path, Sharded: false})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out, nil
}

// pruneCheckpoints enforces keep-last-N retention in dir after a
// successful checkpoint at iteration current: all but the newest keep
// stamped checkpoints are deleted, as are torn sharded directories
// (no manifest) other than the current iteration's. The checkpoint
// just written is never deleted. Removal failures are reported but the
// checkpoint itself already committed, so the caller may choose to
// continue training.
func pruneCheckpoints(dir string, keep, current int) error {
	if keep < 1 {
		keep = 1
	}
	entries, err := ListCheckpoints(dir)
	if err != nil {
		return err
	}
	var firstErr error
	rm := func(path string) {
		if err := os.RemoveAll(path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i, e := range entries {
		if len(entries)-i <= keep || e.Iter == current {
			continue
		}
		rm(e.Path)
	}
	// Torn sharded directories: stamped dirs ListCheckpoints skipped.
	des, err := os.ReadDir(dir)
	if err != nil {
		return firstErr
	}
	for _, de := range des {
		m := stampedRE.FindStringSubmatch(de.Name())
		if m == nil || !de.IsDir() || m[2] != "" {
			continue
		}
		if iter, err := strconv.Atoi(m[1]); err != nil || iter == current {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, de.Name(), ManifestFileName)); os.IsNotExist(err) {
			rm(filepath.Join(dir, de.Name()))
		}
	}
	return firstErr
}

// WriteSharded writes one complete sharded checkpoint for sh into
// <dir>/checkpoint-<iter>/ and returns the checkpoint directory path.
// It is the exported face of the trainer's own checkpoint step for
// external orchestrators (the live coordinator, recovery tooling): the
// caller fills the checkpoint's envelope — Sampler, Cfg, Iter, Elapsed,
// Trace, Fingerprint — and this writes every shard concurrently, then
// the manifest, atomically, last (the commit point).
func (ck *Checkpoint) WriteSharded(dir string, sh sampler.Sharded) (string, error) {
	return ck.writeSharded(dir, sh)
}

// PruneCheckpoints enforces keep-last-N retention in dir after a
// successful checkpoint at iteration current, exactly as the trainer
// does between iterations: all but the newest keep stamped checkpoints
// are deleted, as are torn sharded directories other than the current
// iteration's. The checkpoint just written is never deleted.
func PruneCheckpoints(dir string, keep, current int) error {
	return pruneCheckpoints(dir, keep, current)
}

// writeSharded writes one complete sharded checkpoint for sh into
// <dir>/checkpoint-<iter>/: every shard concurrently through
// fsio.AtomicWriteFile, then the manifest, atomically, last. It
// returns the checkpoint directory path.
func (ck *Checkpoint) writeSharded(dir string, sh sampler.Sharded) (string, error) {
	ckDir := filepath.Join(dir, stampedDirName(ck.Iter))
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return "", err
	}
	// The directory may already hold a COMPLETE checkpoint of this same
	// iteration (a resume interrupted before its first new iteration
	// re-checkpoints at the resume point). Retract its manifest before
	// touching any shard file: the directory is then properly "torn"
	// while shards are being replaced, so a crash mid-rewrite can never
	// leave an old manifest vouching for a mixed shard set.
	if err := os.Remove(filepath.Join(ckDir, ManifestFileName)); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	p := sh.NumShards()
	sizes := make([]int64, p)
	crcs := make([]uint32, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sizes[i], crcs[i], errs[i] = writeShardFile(
				filepath.Join(ckDir, shardFileName(i)), ck, i, p, sh)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return "", fmt.Errorf("writing shard %d: %w", i, err)
		}
	}
	ck.Dir = ckDir
	ck.ShardFiles = make([]string, p)
	for i := range ck.ShardFiles {
		ck.ShardFiles[i] = shardFileName(i)
	}
	ck.ShardSizes = sizes
	ck.ShardCRCs = crcs
	if _, err := fsio.AtomicWriteFile(filepath.Join(ckDir, ManifestFileName),
		".warplda-manifest-*", ck.writeManifestTo); err != nil {
		return "", fmt.Errorf("writing manifest: %w", err)
	}
	return ckDir, nil
}

// writeShardFile writes one WARPSHRD file: magic, a CRC32-checksummed
// body (iteration, corpus fingerprint, shard index and count, then the
// sampler's shard stream), and the CRC trailer. It returns the file's
// total size and the trailer value — the identity the manifest records.
func writeShardFile(path string, ck *Checkpoint, i, p int, sh sampler.Sharded) (size int64, crc uint32, err error) {
	size, err = fsio.AtomicWriteFile(path, ".warplda-shard-*", func(w io.Writer) (int64, error) {
		if _, err := io.WriteString(w, shardMagic); err != nil {
			return 0, err
		}
		hw := fsio.NewCRCWriter(w)
		cw := &countWriter{w: hw}
		e := sampler.NewEnc(cw)
		e.Int(ck.Iter)
		e.U64(uint64(ck.Fingerprint))
		e.Int(i)
		e.Int(p)
		if err := e.Err(); err != nil {
			return 0, err
		}
		if err := sh.ShardTo(i, cw); err != nil {
			return 0, err
		}
		crc = hw.Sum32()
		if err := binary.Write(w, binary.LittleEndian, crc); err != nil {
			return 0, err
		}
		return int64(len(shardMagic)) + cw.n + 4, nil
	})
	return size, crc, err
}

// writeManifestTo serializes the WARPMANI manifest: magic, the shared
// checkpoint envelope, the shard table, CRC32 trailer.
func (ck *Checkpoint) writeManifestTo(w io.Writer) (int64, error) {
	if _, err := io.WriteString(w, manifestMagic); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	cw := &countWriter{w: io.MultiWriter(w, crc)}
	e := sampler.NewEnc(cw)
	encodeEnvelope(e, ck)
	e.Int(len(ck.ShardFiles))
	for i, name := range ck.ShardFiles {
		e.Str(name)
		e.Int(int(ck.ShardSizes[i]))
		e.U64(uint64(ck.ShardCRCs[i]))
	}
	if err := e.Err(); err != nil {
		return 0, err
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return 0, err
	}
	return int64(len(manifestMagic)) + cw.n + 4, nil
}

// WriteManifestFile writes the checkpoint's manifest alone to path
// (atomically). The trainer writes manifests only through writeSharded
// — shards first, manifest as the commit point — but recovery tooling
// (and tests) may need to re-emit a manifest for an existing shard set.
func (ck *Checkpoint) WriteManifestFile(path string) error {
	_, err := fsio.AtomicWriteFile(path, ".warplda-manifest-*", ck.writeManifestTo)
	return err
}

// ReadManifest loads the sharded checkpoint rooted at dir: the
// manifest is read and CRC-verified, and every shard file in its table
// is confirmed to exist with the recorded size. Shard *contents* are
// verified against the table's CRCs at restore time (RestoreInto),
// when they are actually read.
func ReadManifest(dir string) (*Checkpoint, error) {
	path := filepath.Join(dir, ManifestFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(manifestMagic)+4 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%s: not a checkpoint manifest (bad magic)", path)
	}
	body := raw[len(manifestMagic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%s: manifest checksum mismatch (file %08x, computed %08x): torn or corrupt file", path, want, got)
	}
	d := sampler.NewDec(bytes.NewReader(body))
	ck := &Checkpoint{Dir: dir}
	decodeEnvelope(d, ck)
	n := d.Int()
	if d.Err() == nil && (n < 1 || n > maxShards) {
		d.Failf("implausible shard count %d", n)
	}
	if d.Err() == nil {
		ck.ShardFiles = make([]string, n)
		ck.ShardSizes = make([]int64, n)
		ck.ShardCRCs = make([]uint32, n)
		for i := 0; i < n; i++ {
			ck.ShardFiles[i] = d.Str("shard file name", 1<<10)
			ck.ShardSizes[i] = int64(d.Int())
			ck.ShardCRCs[i] = uint32(d.U64())
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%s: corrupt manifest: %w", path, err)
	}
	if err := validateCheckpoint(ck); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i, name := range ck.ShardFiles {
		// The name must be a bare file name: a manifest must not be able
		// to point resume at files outside its own checkpoint directory.
		if name == "" || filepath.Base(name) != name {
			return nil, fmt.Errorf("%s: shard %d has invalid file name %q", path, i, name)
		}
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("%s: shard %d missing: %w", path, i, err)
		}
		if st.Size() != ck.ShardSizes[i] {
			return nil, fmt.Errorf("%s: shard %d (%s) is %d bytes, manifest records %d: truncated or foreign shard file",
				path, i, name, st.Size(), ck.ShardSizes[i])
		}
	}
	return ck, nil
}

// RestoreInto restores the sharded checkpoint's state into sh,
// rebalancing across a changed worker count. Every shard file is read
// and checked — magic, CRC trailer, the manifest's recorded CRC (which
// catches a self-consistent shard swapped in from a *different*
// checkpoint), and the header's iteration / corpus fingerprint / shard
// position — before any state reaches the sampler. It returns whether
// worker RNG streams were reseeded (worker count changed).
//
// Shards are handed to RestoreShards as lazy readers that verify each
// file in a streaming pass when first read and only then serve its
// body: the sampler consumes shards one at a time, so at most one
// shard's file buffer is resident beyond the decoded state itself.
// (An earlier version materialized every raw shard body up front,
// holding ~2× the full sampler state at the worst moment.)
// Validate-then-commit is preserved: the file-level checks run before
// a shard's first byte reaches the decoder, and RestoreShards itself
// validates the union of all shards before committing any state.
func (ck *Checkpoint) RestoreInto(sh sampler.Sharded) (reseeded bool, err error) {
	if !ck.IsSharded() {
		return false, fmt.Errorf("train: checkpoint is not sharded")
	}
	readers := make([]io.Reader, len(ck.ShardFiles))
	shards := make([]*lazyShardReader, len(ck.ShardFiles))
	for i := range ck.ShardFiles {
		shards[i] = &lazyShardReader{ck: ck, i: i}
		readers[i] = shards[i]
	}
	defer func() {
		for _, s := range shards {
			s.close()
		}
	}()
	return sh.RestoreShards(uint64(ck.Iter), readers)
}

// lazyShardReader serves one shard file's sampler-level stream (the
// body after the shard header, before the CRC trailer) to RestoreShards
// without materializing it. The first Read triggers the verification
// pass: the whole file is streamed through CRC32 and checked — size,
// magic, trailer, the manifest's recorded CRC, header fields — with
// only a copy buffer resident; the file is then rewound and the body
// served through a buffered reader. A shard that fails any check never
// yields a byte to the decoder.
type lazyShardReader struct {
	ck   *Checkpoint
	i    int
	f    *os.File
	body io.Reader
	err  error
}

func (s *lazyShardReader) Read(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.body == nil {
		if err := s.open(); err != nil {
			s.err = fmt.Errorf("train: shard %d (%s): %w", s.i, s.ck.ShardFiles[s.i], err)
			return 0, s.err
		}
	}
	return s.body.Read(p)
}

func (s *lazyShardReader) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	if s.err == nil {
		s.err = fmt.Errorf("train: shard %d: read after restore", s.i)
	}
}

// open runs the verification pass and positions the body reader.
func (s *lazyShardReader) open() error {
	f, err := os.Open(filepath.Join(s.ck.Dir, s.ck.ShardFiles[s.i]))
	if err != nil {
		return err
	}
	s.f = f
	streamLen, err := s.ck.verifyShard(s.i, f)
	if err != nil {
		return err
	}
	// Verified: rewind past magic and header and serve the stream.
	if _, err := f.Seek(int64(len(shardMagic))+shardHeaderLen, io.SeekStart); err != nil {
		return err
	}
	s.body = bufio.NewReaderSize(io.LimitReader(f, streamLen), 1<<16)
	return nil
}

// VerifyShard streams shard i's file through every file-level check a
// resume runs before a byte of it reaches the sampler — recorded size,
// magic, CRC32 trailer over the body, the manifest's CRC for this slot,
// and the header's iteration / corpus fingerprint / position — without
// restoring any state, so a multi-GB shard verifies with one copy
// buffer resident.
func (ck *Checkpoint) VerifyShard(i int) error {
	f, err := os.Open(filepath.Join(ck.Dir, ck.ShardFiles[i]))
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ck.verifyShard(i, f)
	return err
}

// shardHeaderLen is the fixed-size header that opens a WARPSHRD body:
// iteration, corpus fingerprint, shard index, shard count (3 int64s +
// 1 uint64).
const shardHeaderLen = 4 * 8

// verifyShard is the one verification pass over shard i's file, shared
// by restore (lazyShardReader.open) and VerifyShard. It reads f from
// its start to its end and returns the length of the sampler-level
// stream that follows the shard header.
func (ck *Checkpoint) verifyShard(i int, f *os.File) (streamLen int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() != ck.ShardSizes[i] {
		return 0, fmt.Errorf("%d bytes, manifest records %d: truncated or foreign shard file", st.Size(), ck.ShardSizes[i])
	}
	bodyLen := st.Size() - int64(len(shardMagic)) - 4
	if bodyLen < shardHeaderLen {
		return 0, fmt.Errorf("not a checkpoint shard file (too short)")
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(shardMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, err
	}
	if string(magic) != shardMagic {
		return 0, fmt.Errorf("not a checkpoint shard file (bad magic)")
	}
	// Stream the body through the checksum; keep the shard header aside
	// for the envelope checks.
	crc := crc32.NewIEEE()
	header := make([]byte, shardHeaderLen)
	if _, err := io.ReadFull(br, header); err != nil {
		return 0, err
	}
	crc.Write(header)
	if _, err := io.Copy(crc, io.LimitReader(br, bodyLen-shardHeaderLen)); err != nil {
		return 0, err
	}
	var trailerBuf [4]byte
	if _, err := io.ReadFull(br, trailerBuf[:]); err != nil {
		return 0, err
	}
	trailer := binary.LittleEndian.Uint32(trailerBuf[:])
	got := crc.Sum32()
	if got != trailer {
		return 0, fmt.Errorf("shard checksum mismatch (file %08x, computed %08x): torn or corrupt file", trailer, got)
	}
	if got != ck.ShardCRCs[i] {
		return 0, fmt.Errorf("shard checksum %08x does not match manifest's %08x: foreign shard file", got, ck.ShardCRCs[i])
	}
	d := sampler.NewDec(bytes.NewReader(header))
	iter := d.Int()
	fp := uint32(d.U64())
	idx := d.Int()
	count := d.Int()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if iter != ck.Iter {
		return 0, fmt.Errorf("shard written at iteration %d, manifest says %d: foreign shard file", iter, ck.Iter)
	}
	if fp != ck.Fingerprint {
		return 0, fmt.Errorf("shard corpus fingerprint %08x does not match manifest's %08x: foreign shard file", fp, ck.Fingerprint)
	}
	if idx != i || count != len(ck.ShardFiles) {
		return 0, fmt.Errorf("shard identifies as %d of %d, manifest places it at %d of %d: foreign or reordered shard file",
			idx, count, i, len(ck.ShardFiles))
	}
	return bodyLen - shardHeaderLen, nil
}
