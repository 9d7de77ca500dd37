// The checkpoint container. Every checkpoint is a directory of WARPSHRD
// shard files bound by a WARPMANI manifest. A sampler implementing
// sampler.Sharded writes one shard per worker, concurrently; any other
// sampler is one shard holding its state stream (oneShard). The
// manifest — written last, atomically — carries the checkpoint
// envelope plus a shard table (file name, size, CRC32 of every shard),
// so resume can validate every shard against the manifest before any
// state reaches the sampler: a truncated, bit-rotted, or foreign shard
// file (swapped in from another checkpoint, even a self-consistent
// one) is rejected by the table, not discovered mid-restore.
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
// ignores and the next retention sweep removes. Byte-level
// specifications live in docs/FORMATS.md.
package train

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// "checkpoint-" + 8-digit zero-padded iteration is the naming scheme of
// retained checkpoint directories: checkpoint-00000042/.
var stampedRE = regexp.MustCompile(`^checkpoint-(\d{8,})$`)

// stampedDirName returns the checkpoint directory name for iteration i.
func stampedDirName(iter int) string { return fmt.Sprintf("checkpoint-%08d", iter) }

// shardFileName returns shard i's file name inside a checkpoint
// directory.
func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.ckpt", i) }

// CheckpointEntry is one retained checkpoint found in a checkpoint
// directory.
type CheckpointEntry struct {
	// Iter is the iteration the checkpoint was written at.
	Iter int
	// Path is the checkpoint directory.
	Path string
}

// ListCheckpoints returns dir's iteration-stamped checkpoints sorted by
// iteration (oldest first). A directory counts only when its manifest
// exists — a directory without one is a torn write, not a checkpoint.
func ListCheckpoints(dir string) ([]CheckpointEntry, error) {
	stamped, torn, err := stampedDirs(dir)
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(stamped, func(e CheckpointEntry) bool { return torn[e.Path] }), nil
}

// stampedDirs returns dir's iteration-stamped directories sorted by
// iteration, and the set of those without a manifest.
func stampedDirs(dir string) ([]CheckpointEntry, map[string]bool, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var out []CheckpointEntry
	torn := map[string]bool{}
	for _, de := range des {
		m := stampedRE.FindStringSubmatch(de.Name())
		if m == nil || !de.IsDir() {
			continue
		}
		iter, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		path := filepath.Join(dir, de.Name())
		if _, err := os.Stat(filepath.Join(path, ManifestFileName)); err != nil {
			torn[path] = true
		}
		out = append(out, CheckpointEntry{Iter: iter, Path: path})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out, torn, nil
}

// PruneCheckpoints enforces keep-last-N retention in dir after a
// successful checkpoint at iteration current — train.Run runs it after
// every checkpoint it writes: all but the newest keep stamped
// checkpoints are deleted, as are torn directories (no manifest) other
// than the current iteration's. The checkpoint just written is never
// deleted. Removal failures are reported but the checkpoint itself
// already committed, so the caller may choose to continue training.
func PruneCheckpoints(dir string, keep, current int) error {
	stamped, torn, err := stampedDirs(dir)
	if err != nil {
		return err
	}
	keep = max(keep, 1)
	var firstErr error
	for i := len(stamped) - 1; i >= 0; i-- {
		e := stamped[i]
		if !torn[e.Path] && keep > 0 {
			keep--
			continue
		}
		if e.Iter == current {
			continue
		}
		if err := os.RemoveAll(e.Path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WriteSharded writes one complete checkpoint for sh into
// <dir>/checkpoint-<iter>/ and returns the checkpoint directory path:
// every shard concurrently through fsio.AtomicWriteFile, then the
// manifest, atomically, last (the commit point). The caller fills the
// checkpoint's envelope — Sampler, Cfg, Iter, Elapsed, Trace,
// Fingerprint; train.Run and recovery tooling write through it.
func (ck *Checkpoint) WriteSharded(dir string, sh sampler.Sharded) (string, error) {
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
		n, sum, err := fsio.WriteEnvelope(w, shardMagic, func(w io.Writer) error {
			e := sampler.NewEnc(w)
			e.Int(ck.Iter)
			e.U64(uint64(ck.Fingerprint))
			e.Ints(i, p)
			if err := e.Err(); err != nil {
				return err
			}
			return sh.ShardTo(i, w)
		})
		crc = sum
		return n, err
	})
	return size, crc, err
}

// writeManifestTo serializes the WARPMANI manifest: magic, the shared
// checkpoint envelope, the shard table, CRC32 trailer.
func (ck *Checkpoint) writeManifestTo(w io.Writer) (int64, error) {
	n, _, err := fsio.WriteEnvelope(w, manifestMagic, func(w io.Writer) error {
		e := sampler.NewEnc(w)
		encodeEnvelope(e, ck)
		e.Int(len(ck.ShardFiles))
		for i, name := range ck.ShardFiles {
			e.Str(name)
			e.Int(int(ck.ShardSizes[i]))
			e.U64(uint64(ck.ShardCRCs[i]))
		}
		return e.Err()
	})
	return n, err
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
	body, err := fsio.CheckImage(raw, manifestMagic)
	if err != nil {
		return nil, fmt.Errorf("%s: manifest %w", path, err)
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

// RestoreInto restores the checkpoint's state into sh,
// rebalancing across a changed worker count. Every shard file is read
// and checked — magic, CRC trailer, the manifest's recorded CRC (which
// catches a self-consistent shard swapped in from a *different*
// checkpoint), and the header's iteration / corpus fingerprint / shard
// position — before any state reaches the sampler.
//
// Shards are handed to RestoreShards as lazy readers that verify each
// file in a streaming pass when first read and only then serve its
// body: the sampler consumes shards one at a time, so at most one
// shard's file buffer is resident beyond the decoded state itself.
// Validate-then-commit is preserved: the file-level checks run before
// a shard's first byte reaches the decoder, and RestoreShards itself
// validates the union of all shards before committing any state.
func (ck *Checkpoint) RestoreInto(sh sampler.Sharded) error {
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
	return sh.RestoreShards(ck.Iter, readers)
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
	streamLen = st.Size() - int64(len(shardMagic)) - shardHeaderLen - 4
	if streamLen < 0 {
		return 0, fmt.Errorf("not a checkpoint shard file (too short)")
	}
	er, err := fsio.NewReader(bufio.NewReaderSize(f, 1<<16), shardMagic)
	if err != nil {
		return 0, fmt.Errorf("not a checkpoint shard file: %w", err)
	}
	// Decode the header on the way through the checksum; it is checked
	// against the manifest once the trailer has vouched for it.
	d := sampler.NewDec(er)
	iter := d.Int()
	fp := uint32(d.U64())
	idx := d.Int()
	count := d.Int()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if _, err := io.CopyN(io.Discard, er, streamLen); err != nil {
		return 0, err
	}
	if err := er.Close(); err != nil {
		return 0, fmt.Errorf("shard %w", err)
	}
	if got := er.Sum32(); got != ck.ShardCRCs[i] {
		return 0, fmt.Errorf("shard checksum %08x does not match manifest's %08x: foreign shard file", got, ck.ShardCRCs[i])
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
	return streamLen, nil
}

// stateful is what a sampler without sharded state — the baselines —
// must offer to be checkpointed: its complete mutable
// state as one stream. StateTo writes it between Iterate calls, so that
// a sampler built over the same corpus and Config and restored with
// RestoreFrom continues the run exactly where this one stands;
// RestoreFrom validates fully before committing, so on error the
// sampler's prior state is untouched.
type stateful interface {
	sampler.Sampler
	StateTo(w io.Writer) error
	RestoreFrom(r io.Reader) error
}

// oneShard presents a stateful sampler as a one-shard sampler.Sharded,
// so every checkpoint is a manifest: shard 0's stream is StateTo's, and
// restore is RestoreFrom of that one verified stream.
type oneShard struct{ stateful }

func (oneShard) NumShards() int                     { return 1 }
func (o oneShard) ShardTo(_ int, w io.Writer) error { return o.StateTo(w) }
func (o oneShard) RestoreShards(_ int, shards []io.Reader) error {
	if len(shards) != 1 {
		return fmt.Errorf("train: %d shards, sampler %q restores from one", len(shards), o.Name())
	}
	return o.RestoreFrom(shards[0])
}

// asSharded returns s itself when it has sharded state, s as one shard
// when it is stateful, and an error when it is neither.
func asSharded(s sampler.Sampler) (sampler.Sharded, error) {
	switch s := s.(type) {
	case sampler.Sharded:
		return s, nil
	case stateful:
		return oneShard{s}, nil
	}
	return nil, fmt.Errorf("train: sampler %q has no checkpointable state (neither sampler.Sharded nor a StateTo/RestoreFrom pair)", s.Name())
}
