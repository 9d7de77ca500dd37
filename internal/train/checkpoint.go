// Checkpoint envelope and the legacy single-file format. A checkpoint
// is everything a crashed or killed training run needs to continue as
// if nothing happened: the sampler's identity and configuration, the
// loop progress (iteration counter, elapsed sampling time, convergence
// trace), a fingerprint of the corpus it was training on, and the
// sampler's complete serialized state (assignments, pending proposals,
// caches, RNG streams).
//
// Every checkpoint is written as a WARPMANI manifest plus WARPSHRD
// shards (manifest.go). The single-file WARPCKPT format that earlier
// releases wrote is read-only: Read and Load still accept it, and
// train.Run restores it through the sampler's RestoreFrom.
package train

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"warplda/internal/corpus"
	"warplda/internal/fsio"
	"warplda/internal/sampler"
)

const (
	// ckptMagic opens a legacy single-file checkpoint.
	ckptMagic = "WARPCKPT\x01"
	// DefaultFileName is the unstamped single-file checkpoint releases
	// before checkpoint retention wrote inside a checkpoint directory;
	// Load falls back to it when nothing stamped exists.
	DefaultFileName = "checkpoint.ckpt"

	// maxTracePoints and maxTopics bound allocations driven by decoded
	// length fields. Both envelope readers check the trailer before
	// decoding, so these only stop a well-checksummed hostile file. Both
	// are far beyond any real run — the paper's largest K is 10^6 —
	// while keeping the worst-case allocation small.
	maxTracePoints = 1 << 20
	maxTopics      = 1 << 22
)

// Checkpoint is a resumable training snapshot: an envelope (sampler
// identity, config, loop progress, corpus fingerprint) and the
// sampler's state. Written checkpoints are directories of WARPSHRD
// shard files bound together by a CRC-trailed WARPMANI manifest — one
// shard per worker of a sampler.Sharded, one shard holding StateTo's
// stream for any other sampler (see manifest.go and docs/FORMATS.md).
// A legacy single-file WARPCKPT checkpoint, read by Read, carries the
// state in State instead.
type Checkpoint struct {
	// Sampler is the algorithm name (sampler.Sampler.Name) the state
	// belongs to; resuming into a different algorithm is refused.
	Sampler string
	// Cfg is the full sampler configuration of the run.
	Cfg sampler.Config
	// Iter is the number of completed iterations; Elapsed the cumulative
	// sampling time; Trace the evaluation points recorded so far.
	Iter    int
	Elapsed time.Duration
	Trace   sampler.Run
	// Fingerprint identifies the corpus (see CorpusFingerprint); a
	// checkpoint resumed against a different corpus is refused.
	Fingerprint uint32
	// State is a legacy WARPCKPT checkpoint's serialized sampler state
	// (StateTo output). Nil for manifest checkpoints, whose state lives
	// in the shard files.
	State []byte

	// Dir is the manifest checkpoint's directory; empty for a legacy
	// single-file checkpoint.
	Dir string
	// ShardFiles, ShardSizes and ShardCRCs are the manifest's shard
	// table: file name (relative to Dir), total byte size, and CRC32
	// trailer value of each per-worker shard, in worker order. A shard
	// whose on-disk identity disagrees with this table — truncated,
	// bit-rotted, or swapped in from another checkpoint — is rejected
	// before any state reaches the sampler.
	ShardFiles []string
	ShardSizes []int64
	ShardCRCs  []uint32
}

// IsSharded reports whether the checkpoint is a manifest with shard
// files, the shape every checkpoint is written in, rather than a
// legacy WARPCKPT file.
func (ck *Checkpoint) IsSharded() bool { return len(ck.ShardFiles) > 0 }

// CorpusFingerprint hashes the corpus identity a checkpoint is bound
// to: dimensions, document lengths, and every token, so resuming
// against a reordered, truncated, or simply different corpus is caught
// before any state is restored. The canonical hash sequence lives in
// corpus.Fingerprint; an in-memory corpus costs an O(tokens) walk,
// while a memory-mapped cache answers from its validated header
// (corpus.Fingerprinted) — resuming against a mapped corpus validates
// the cache file, not a re-read of the source. Mapped and materialized
// views of the same corpus fingerprint identically, so checkpoints move
// freely between the -stream and in-memory paths.
func CorpusFingerprint(c corpus.Provider) uint32 {
	return corpus.FingerprintOf(c)
}

// Read deserializes a legacy single-file WARPCKPT checkpoint — magic,
// envelope, the sampler state running to the trailer, CRC32 trailer —
// verifying the trailer before decoding anything: a torn or bit-rotted
// file is an error, never a resumable state.
func Read(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("train: reading checkpoint: %w", err)
	}
	body, err := fsio.CheckImage(raw, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("train: checkpoint: %w", err)
	}
	br := bytes.NewReader(body)
	d := sampler.NewDec(br)
	ck := &Checkpoint{}
	decodeEnvelope(d, ck)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("train: corrupt checkpoint: %w", err)
	}
	ck.State = body[len(body)-br.Len():]
	if err := validateCheckpoint(ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// Load reads a checkpoint from path, which may be:
//
//   - a checkpoint directory (contains ManifestFileName) or its
//     manifest file directly;
//   - a legacy WARPCKPT file (stamped, or the unstamped DefaultFileName);
//   - a checkpoint *collection* directory — what -checkpoint-dir
//     accumulates under keep-last-N retention — in which case the
//     newest iteration-stamped checkpoint (of either shape) is loaded,
//     falling back to the legacy DefaultFileName.
func Load(path string) (*Checkpoint, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if _, err := os.Stat(filepath.Join(path, ManifestFileName)); err == nil {
			return ReadManifest(path)
		}
		entries, err := ListCheckpoints(path)
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			newest := entries[len(entries)-1]
			if newest.Sharded {
				return ReadManifest(newest.Path)
			}
			path = newest.Path
		} else {
			path = filepath.Join(path, DefaultFileName)
		}
	}
	if filepath.Base(path) == ManifestFileName {
		return ReadManifest(filepath.Dir(path))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// Verify checks that the checkpoint belongs to this (sampler, corpus
// fingerprint, config) triple. It is the gate train.Run applies before
// restoring any state.
func (ck *Checkpoint) Verify(samplerName string, fingerprint uint32, cfg sampler.Config) error {
	return ck.verify(samplerName, fingerprint, cfg, false)
}

// VerifyElastic is Verify for manifest checkpoints: identical except
// that cfg.Threads may differ from the checkpoint's — the worker
// topology is exactly what an elastic resume is allowed to change. The
// shard files themselves still pin the topology they were written
// under; sampler.Sharded.RestoreShards owns the rebalancing, and a
// sampler that never reads Threads restores its one shard unchanged.
func (ck *Checkpoint) VerifyElastic(samplerName string, fingerprint uint32, cfg sampler.Config) error {
	return ck.verify(samplerName, fingerprint, cfg, true)
}

// legacyShardedNameRE matches the distributed sampler's pre-elastic
// name, which embedded the worker count ("WarpLDA-sharded[3]"). The
// suffix was dropped so checkpoints survive topology changes; old
// checkpoints carrying it must stay resumable, so verification strips
// it before comparing (the state blob itself still pins the worker
// count — RestoreFrom rejects a mismatch).
var legacyShardedNameRE = regexp.MustCompile(`^(WarpLDA-sharded)\[\d+\]$`)

func (ck *Checkpoint) verify(samplerName string, fingerprint uint32, cfg sampler.Config, elastic bool) error {
	ckName := ck.Sampler
	if m := legacyShardedNameRE.FindStringSubmatch(ckName); m != nil {
		ckName = m[1]
	}
	if ckName != samplerName {
		return fmt.Errorf("train: checkpoint was written by sampler %q, resuming %q", ck.Sampler, samplerName)
	}
	if ck.Fingerprint != fingerprint {
		return fmt.Errorf("train: checkpoint corpus fingerprint %08x does not match training corpus %08x", ck.Fingerprint, fingerprint)
	}
	ckCfg := ck.Cfg
	if elastic {
		ckCfg.Threads = cfg.Threads
	}
	if !configsEqual(ckCfg, cfg) {
		return fmt.Errorf("train: checkpoint config %+v does not match run config %+v", ck.Cfg, cfg)
	}
	return nil
}

// validateCheckpoint sanity-checks the decoded fields beyond what the
// CRC can know (the CRC only proves the bytes are what was written).
func validateCheckpoint(ck *Checkpoint) error {
	if ck.Iter < 0 {
		return fmt.Errorf("train: corrupt checkpoint: negative iteration %d", ck.Iter)
	}
	if ck.Elapsed < 0 {
		return fmt.Errorf("train: corrupt checkpoint: negative elapsed time %v", ck.Elapsed)
	}
	if err := ck.Cfg.Validate(); err != nil {
		return fmt.Errorf("train: corrupt checkpoint: %w", err)
	}
	last := 0
	for _, p := range ck.Trace.Points {
		if p.Iter <= last || p.Iter > ck.Iter || math.IsNaN(p.LogLik) {
			return fmt.Errorf("train: corrupt checkpoint: bad trace point %+v", p)
		}
		last = p.Iter
	}
	return nil
}

// encodeEnvelope writes the fields shared by both checkpoint shapes —
// sampler identity, config, loop progress, trace, corpus fingerprint —
// in the WARPCKPT body order. The manifest (manifest.go) carries the
// same bytes, so both shapes decode through decodeEnvelope.
func encodeEnvelope(e *sampler.Enc, ck *Checkpoint) {
	e.Str(ck.Sampler)
	encodeConfig(e, ck.Cfg)
	e.Int(ck.Iter)
	e.Int(int(ck.Elapsed))
	e.Str(ck.Trace.Sampler)
	e.Int(len(ck.Trace.Points))
	for _, p := range ck.Trace.Points {
		e.Int(p.Iter)
		e.Int(int(p.Elapsed))
		e.F64(p.LogLik)
		e.F64(p.TokensSec)
		e.F64(p.IntervalTokensSec)
	}
	e.U64(uint64(ck.Fingerprint))
}

// decodeEnvelope reads what encodeEnvelope wrote. Errors land in d.
func decodeEnvelope(d *sampler.Dec, ck *Checkpoint) {
	ck.Sampler = d.Str("sampler name", 1<<10)
	ck.Cfg = decodeConfig(d)
	ck.Iter = d.Int()
	ck.Elapsed = time.Duration(d.Int())
	ck.Trace.Sampler = d.Str("trace sampler name", 1<<10)
	nPoints := d.Int()
	// The allocation bound is a constant, not ck.Iter: a hostile count
	// fails here instead of OOM-ing on make(). Consistency with Iter is
	// checked in validateCheckpoint.
	if d.Err() == nil && (nPoints < 0 || nPoints > maxTracePoints) {
		d.Failf("implausible trace length %d", nPoints)
	}
	if d.Err() == nil {
		ck.Trace.Points = make([]sampler.Point, nPoints)
		for i := range ck.Trace.Points {
			p := &ck.Trace.Points[i]
			p.Iter = d.Int()
			p.Elapsed = time.Duration(d.Int())
			p.LogLik = d.F64()
			p.TokensSec = d.F64()
			p.IntervalTokensSec = d.F64()
		}
	}
	ck.Fingerprint = uint32(d.U64())
}

func encodeConfig(e *sampler.Enc, cfg sampler.Config) {
	e.Int(cfg.K)
	e.F64(cfg.Alpha)
	e.F64(cfg.Beta)
	e.Int(cfg.M)
	e.U64(cfg.Seed)
	e.Int(cfg.Threads)
	if cfg.AlphaVec == nil {
		e.Int(0)
	} else {
		e.Int(1)
		e.F64s(cfg.AlphaVec)
	}
}

func decodeConfig(d *sampler.Dec) sampler.Config {
	var cfg sampler.Config
	cfg.K = d.Int()
	cfg.Alpha = d.F64()
	cfg.Beta = d.F64()
	cfg.M = d.Int()
	cfg.Seed = d.U64()
	cfg.Threads = d.Int()
	switch has := d.Int(); has {
	case 0:
	case 1:
		// len(AlphaVec) must equal K, so bound-check K before letting it
		// size an allocation.
		if cfg.K <= 0 || cfg.K > maxTopics {
			d.Failf("train: corrupt checkpoint: alpha vector for implausible K=%d", cfg.K)
			break
		}
		cfg.AlphaVec = d.F64sLen("alpha vector", cfg.K)
	default:
		d.Failf("train: corrupt alpha-vector flag %d", has)
	}
	return cfg
}

// configsEqual compares two configs field by field (AlphaVec by value).
func configsEqual(a, b sampler.Config) bool {
	if a.K != b.K || a.Alpha != b.Alpha || a.Beta != b.Beta ||
		a.M != b.M || a.Seed != b.Seed || a.Threads != b.Threads {
		return false
	}
	if len(a.AlphaVec) != len(b.AlphaVec) || (a.AlphaVec == nil) != (b.AlphaVec == nil) {
		return false
	}
	for i := range a.AlphaVec {
		if a.AlphaVec[i] != b.AlphaVec[i] {
			return false
		}
	}
	return true
}
