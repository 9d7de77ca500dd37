// Checkpoint envelope. A checkpoint is everything a crashed or killed
// training run needs to continue as if nothing happened: the sampler's
// identity and configuration, the loop progress (iteration counter,
// elapsed sampling time, convergence trace), a fingerprint of the
// corpus it was training on, and the sampler's complete serialized
// state (assignments, pending proposals, caches, RNG streams) in the
// WARPSHRD shard files a WARPMANI manifest binds (manifest.go).
package train

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

const (
	// maxTracePoints and maxTopics bound allocations driven by decoded
	// length fields. ReadManifest checks the trailer before decoding, so
	// these only stop a well-checksummed hostile file. Both are far
	// beyond any real run — the paper's largest K is 10^6 — while keeping
	// the worst-case allocation small.
	maxTracePoints = 1 << 20
	maxTopics      = 1 << 22
)

// Checkpoint is a resumable training snapshot: an envelope (sampler
// identity, config, loop progress, corpus fingerprint) and the shard
// table of the sampler's state. On disk it is a directory of WARPSHRD
// shard files bound together by a CRC-trailed WARPMANI manifest — one
// shard per worker of a sampler.Sharded, one shard holding the state
// stream of any other sampler (see manifest.go and docs/FORMATS.md).
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

	// Dir is the checkpoint's directory.
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

// ErrNoCheckpoint is Load's error for a collection directory that holds
// no complete checkpoint yet.
var ErrNoCheckpoint = errors.New("no complete checkpoint")

// Load reads a checkpoint from path, which may be a checkpoint
// directory (it contains ManifestFileName), its manifest file, or a
// checkpoint *collection* directory — what -checkpoint-dir accumulates
// under keep-last-N retention — in which case the newest complete
// checkpoint is loaded.
func Load(path string) (*Checkpoint, error) {
	if filepath.Base(path) == ManifestFileName {
		return ReadManifest(filepath.Dir(path))
	}
	if _, err := os.Stat(filepath.Join(path, ManifestFileName)); err == nil {
		return ReadManifest(path)
	}
	entries, err := ListCheckpoints(path)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: %w", path, ErrNoCheckpoint)
	}
	return ReadManifest(entries[len(entries)-1].Path)
}

// Verify checks that the checkpoint belongs to this (sampler, corpus
// fingerprint, config) triple. It is the gate train.Run applies before
// restoring any state. cfg.Threads may differ from the checkpoint's:
// the worker topology is exactly what an elastic resume is allowed to
// change. The shard files themselves still pin the topology they were
// written under; sampler.Sharded.RestoreShards owns the rebalancing,
// and a sampler that never reads Threads restores its one shard
// unchanged. The two WarpLDA samplers resume each other's checkpoints:
// they write one shard stream and run one chain law.
func (ck *Checkpoint) Verify(samplerName string, fingerprint uint32, cfg sampler.Config) error {
	if ck.Sampler != samplerName && !(warpLDA[ck.Sampler] && warpLDA[samplerName]) {
		return fmt.Errorf("train: checkpoint was written by sampler %q, resuming %q", ck.Sampler, samplerName)
	}
	if ck.Fingerprint != fingerprint {
		return fmt.Errorf("train: checkpoint corpus fingerprint %08x does not match training corpus %08x", ck.Fingerprint, fingerprint)
	}
	ckCfg := ck.Cfg
	ckCfg.Threads = cfg.Threads
	if !configsEqual(ckCfg, cfg) {
		return fmt.Errorf("train: checkpoint config %+v does not match run config %+v", ck.Cfg, cfg)
	}
	return nil
}

// warpLDA names the samplers whose checkpoints are one shard stream:
// core.Warp and cluster.Distributed.
var warpLDA = map[string]bool{"WarpLDA": true, "WarpLDA-sharded": true}

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

// encodeEnvelope writes the checkpoint envelope that opens a manifest
// body: sampler identity, config, loop progress, trace, corpus
// fingerprint.
func encodeEnvelope(e *sampler.Enc, ck *Checkpoint) {
	e.Str(ck.Sampler)
	encodeConfig(e, ck.Cfg)
	e.Ints(ck.Iter, int(ck.Elapsed))
	e.Str(ck.Trace.Sampler)
	e.Int(len(ck.Trace.Points))
	for _, p := range ck.Trace.Points {
		e.Ints(p.Iter, int(p.Elapsed))
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
	return a.K == b.K && a.Alpha == b.Alpha && a.Beta == b.Beta && a.M == b.M && a.Seed == b.Seed &&
		a.Threads == b.Threads && (a.AlphaVec == nil) == (b.AlphaVec == nil) && slices.Equal(a.AlphaVec, b.AlphaVec)
}
