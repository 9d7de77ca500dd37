// Package warplda is a pure-Go implementation of WarpLDA (Chen, Li, Zhu
// & Chen, VLDB 2016): a cache-efficient O(1)-per-token Metropolis–
// Hastings sampler for Latent Dirichlet Allocation, together with the
// baseline samplers the paper evaluates against (collapsed Gibbs,
// SparseLDA, AliasLDA, F+LDA, LightLDA).
//
// Quick start:
//
//	c := warplda.GenerateLDA(warplda.SyntheticConfig{D: 1000, V: 2000, K: 20, MeanLen: 100, Seed: 1})
//	model, err := warplda.Train(c, warplda.Defaults(20), 100)
//	words := model.TopWords(0, 10) // top words of topic 0
//
// The package is a facade: the algorithms live in internal packages and
// are re-exported here through type aliases, so this is the only import
// a downstream user needs.
package warplda

import (
	"fmt"
	"io"
	"sort"

	"warplda/internal/baselines"
	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// Corpus is a tokenized bag-of-words document collection.
type Corpus = corpus.Corpus

// CorpusProvider is the read-only document-access interface every
// training entry point accepts: *Corpus (in-memory) and *MappedCorpus
// (memory-mapped out-of-core cache) both satisfy it.
type CorpusProvider = corpus.Provider

// MappedCorpus is a corpus memory-mapped from a .warpcorpus cache file:
// its token array lives in page cache, so corpus size is bounded by
// disk, not RAM.
type MappedCorpus = corpus.MappedCorpus

// CorpusStreamOptions tunes the streaming cache builder; CorpusCacheInfo
// describes a built or opened cache.
type (
	CorpusStreamOptions = corpus.StreamOptions
	CorpusCacheInfo     = corpus.CacheInfo
)

// Stats summarizes a corpus (D, T, V, T/D).
type Stats = corpus.Stats

// SyntheticConfig parameterizes the LDA-generative synthetic corpus
// generator.
type SyntheticConfig = corpus.SyntheticConfig

// TokenizeOptions configures FromText.
type TokenizeOptions = corpus.TokenizeOptions

// Config carries sampler hyper-parameters (K, α, β, MH steps, seed,
// threads).
type Config = sampler.Config

// Sampler is one LDA inference algorithm bound to a corpus.
type Sampler = sampler.Sampler

// PassStats counts the MH proposals and accepts of a sampler's last
// pass, per phase. The WarpLDA sampler provides them through a
// PassStats() method; an acceptance rate near zero means its chains
// have stopped moving.
type PassStats = core.PassStats

// Run is the recorded trace of a training run; Point is one evaluation.
type (
	Run   = sampler.Run
	Point = sampler.Point
)

// Defaults returns the paper's hyper-parameters for k topics:
// α = 50/k, β = 0.01, M = 1.
func Defaults(k int) Config { return sampler.PaperDefaults(k) }

// GenerateLDA draws a synthetic corpus from the LDA generative process.
func GenerateLDA(cfg SyntheticConfig) (*Corpus, error) { return corpus.GenerateLDA(cfg) }

// GenerateZipf draws a corpus with Zipf word frequencies (no topic
// structure); useful for systems experiments.
func GenerateZipf(d, v int, meanLen, s float64, seed uint64) *Corpus {
	return corpus.GenerateZipf(d, v, meanLen, s, seed)
}

// ReadUCI parses the UCI bag-of-words format, materializing the corpus
// in memory. For corpora near or beyond RAM, use BuildCorpusCache +
// OpenMappedCorpus (the -stream path of cmd/warplda-train).
func ReadUCI(r io.Reader) (*Corpus, error) { return corpus.ReadUCI(r) }

// BuildCorpusCache streams a UCI docword file into a .warpcorpus cache
// in bounded memory (token and doc-boundary arrays spill to disk as
// they are parsed; the final file is CRC32-trailed and atomically
// renamed). Entries must carry non-decreasing doc ids, the order UCI
// distributions ship in.
func BuildCorpusCache(docword io.Reader, cachePath string, opts CorpusStreamOptions) (*CorpusCacheInfo, error) {
	return corpus.BuildCache(docword, cachePath, opts)
}

// OpenMappedCorpus maps a .warpcorpus cache read-only, verifying its
// checksum and every structural invariant before returning.
func OpenMappedCorpus(path string) (*MappedCorpus, error) { return corpus.OpenMapped(path) }

// CorpusCachePath returns the conventional cache path for a docword
// source file: <cacheDir>/<base(source)>.warpcorpus (cacheDir ""
// means the source's directory).
func CorpusCachePath(sourcePath, cacheDir string) string {
	return corpus.CachePathFor(sourcePath, cacheDir)
}

// MaterializeCorpus copies any provider into an in-memory *Corpus (a
// *Corpus is returned as-is). The baseline samplers need it; WarpLDA
// and the evaluator work on any provider directly.
func MaterializeCorpus(p CorpusProvider) *Corpus { return corpus.Materialize(p) }

// CorpusStats summarizes any provider the way Corpus.Stats does.
func CorpusStats(p CorpusProvider) Stats { return corpus.StatsOf(p) }

// WriteUCI serializes a corpus in UCI bag-of-words format.
func WriteUCI(w io.Writer, c *Corpus) error { return corpus.WriteUCI(w, c) }

// ReadVocab reads a one-word-per-line vocabulary file.
func ReadVocab(r io.Reader) ([]string, error) { return corpus.ReadVocab(r) }

// FromText tokenizes raw documents into a corpus.
func FromText(docs []string, opts TokenizeOptions) *Corpus { return corpus.FromText(docs, opts) }

// Algorithm names accepted by NewSampler.
const (
	WarpLDA   = "warplda"
	CGS       = "cgs"
	SparseLDA = "sparselda"
	AliasLDA  = "aliaslda"
	FPlusLDA  = "flda"
	LightLDA  = "lightlda"
	// Distributed is the physically sharded WarpLDA of Section 5.3;
	// cfg.Threads is its worker/shard count. It is constructible by name
	// but kept out of Algorithms, which is the paper's shared-memory
	// comparison set (Table 2).
	Distributed = "distributed"
)

// Algorithms lists the paper's comparison-set sampler names.
var Algorithms = []string{WarpLDA, CGS, SparseLDA, AliasLDA, FPlusLDA, LightLDA}

// NewSampler constructs the named inference algorithm over c. WarpLDA
// runs against any provider — including a mapped out-of-core corpus —
// directly; the baselines and the sharded sampler index [][]int32
// internally, so a non-*Corpus provider is materialized into heap for
// them (use warplda with -stream corpora to stay out-of-core).
func NewSampler(name string, c CorpusProvider, cfg Config) (Sampler, error) {
	switch name {
	case WarpLDA:
		return core.New(c, cfg)
	case CGS:
		return baselines.NewCGS(corpus.Materialize(c), cfg)
	case SparseLDA:
		return baselines.NewSparseLDA(corpus.Materialize(c), cfg)
	case AliasLDA:
		return baselines.NewAliasLDA(corpus.Materialize(c), cfg)
	case FPlusLDA:
		return baselines.NewFPlusLDA(corpus.Materialize(c), cfg)
	case LightLDA:
		return baselines.NewLightLDA(corpus.Materialize(c), cfg, baselines.LightLDAOptions{})
	case Distributed:
		workers := cfg.Threads
		if workers < 1 {
			workers = 1
		}
		return cluster.NewDistributed(corpus.Materialize(c), cfg, workers)
	default:
		return nil, fmt.Errorf("warplda: unknown algorithm %q (have %v)", name, append(Algorithms, Distributed))
	}
}

// NewDistributed constructs the physically sharded WarpLDA sampler of
// the paper's Section 5.3: workers own disjoint token shards and
// exchange them between the word and doc phases. On a single machine it
// behaves like NewSampler(WarpLDA, ...) with extra coordination; it
// exists for studying the distributed execution model.
func NewDistributed(c *Corpus, cfg Config, workers int) (Sampler, error) {
	return cluster.NewDistributed(c, cfg, workers)
}

// TrainSampler runs iters iterations of s, evaluating log-likelihood
// every evalEvery iterations, and returns the convergence trace.
func TrainSampler(s Sampler, c CorpusProvider, cfg Config, iters, evalEvery int) Run {
	return sampler.Train(s, c, cfg, iters, evalEvery)
}

// TrainOptions configures an orchestrated (checkpointed, budgeted,
// interruptible) training run; TrainResult describes how it ended and
// TrainEvent is the per-iteration progress callback payload.
type (
	TrainOptions = train.Options
	TrainResult  = train.Result
	TrainEvent   = train.Event
)

// Checkpoint is a resumable training snapshot: configuration, loop
// progress, convergence trace, corpus fingerprint, and the sampler's
// complete serialized state.
type Checkpoint = train.Checkpoint

// TrainCheckpointed runs the internal/train orchestrator: train s on c
// until opts.Iters iterations complete, the wall-clock budget runs out,
// or a stop is requested, writing CRC-checksummed, atomically-renamed
// checkpoints along the way. A run resumed from one of its checkpoints
// (opts.ResumeFrom) produces bit-identical assignments and
// log-likelihood trace to a run that was never interrupted.
func TrainCheckpointed(s Sampler, c CorpusProvider, cfg Config, opts TrainOptions) (TrainResult, error) {
	return train.Run(s, c, cfg, opts)
}

// LoadCheckpoint reads a checkpoint file (or the default checkpoint of
// a checkpoint directory), verifying its checksum.
func LoadCheckpoint(path string) (*Checkpoint, error) { return train.Load(path) }

// PublishModelPath resolves a "<model-dir>/<name>" publish spec to the
// snapshot path the serving registry (cmd/warplda-serve) loads for
// model <name>.
func PublishModelPath(spec string) (path, name string, err error) {
	return train.PublishPath(spec)
}

// PublishModelVersionPath resolves a publish spec to the
// iteration-stamped snapshot path and registry name <name>@<iter> —
// the pinned version a registry can roll back to.
func PublishModelVersionPath(spec string, iter int) (path, name string, err error) {
	return train.VersionedPublishPath(spec, iter)
}

// PublishModelLatest atomically points the bare <name>.bin the
// registry serves as <name> at the already-published <name>@<iter>.bin
// snapshot; a watching warplda-serve hot-reloads the swap without a
// restart. It returns the pointer's path.
func PublishModelLatest(spec string, iter int) (string, error) {
	return train.PublishLatest(spec, iter)
}

// PruneModelVersions deletes a publish target's oldest pinned
// <name>@<iter>.bin snapshots, keeping the newest keep versions plus —
// always — the one the latest pointer targets. It returns the removed
// paths.
func PruneModelVersions(spec string, keep int) ([]string, error) {
	return train.PrunePublishedVersions(spec, keep)
}

// ListCheckpoints returns the iteration-stamped checkpoints retained in
// a checkpoint directory (oldest first), each entry naming its path and
// whether it is a sharded (manifest + shard files) checkpoint. See
// docs/FORMATS.md for both on-disk shapes.
func ListCheckpoints(dir string) ([]train.CheckpointEntry, error) {
	return train.ListCheckpoints(dir)
}

// LogLikelihood computes log p(W, Z | α, β) for the sampler's current
// state.
func LogLikelihood(c CorpusProvider, s Sampler, cfg Config) float64 {
	return eval.LogJoint(c, s.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
}

// Model is a trained LDA model: the MAP point estimates of Eq. 4 derived
// from the final assignment counts.
type Model struct {
	Cfg    Config
	V      int
	Vocab  []string // may be nil
	Cw     []int32  // V×K word-topic counts
	Ck     []int64  // K global topic counts
	LogLik float64

	// Lazily built fold-in engine backing DocTopics; see infer_facade.go.
	// A plain pointer (guarded by a package-level mutex) rather than a
	// sync.Once so Model stays copyable.
	inferEng *InferEngine
}

// Train runs WarpLDA for iters iterations over c with the paper's
// defaults in cfg and returns the trained model.
func Train(c *Corpus, cfg Config, iters int) (*Model, error) {
	s, err := NewSampler(WarpLDA, c, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < iters; i++ {
		s.Iterate()
	}
	return Snapshot(c, s, cfg), nil
}

// Snapshot extracts a Model from any sampler's current state. c may be
// any provider; a mapped corpus carries no vocabulary, so set
// Model.Vocab afterwards when one was loaded separately.
func Snapshot(c CorpusProvider, s Sampler, cfg Config) *Model {
	v := c.NumWords()
	m := &Model{
		Cfg:   cfg,
		V:     v,
		Vocab: c.Vocabulary(),
		Cw:    make([]int32, v*cfg.K),
		Ck:    make([]int64, cfg.K),
	}
	z := s.Assignments()
	for d, nd := 0, c.NumDocs(); d < nd; d++ {
		for n, w := range c.Doc(d) {
			t := z[d][n]
			m.Cw[int(w)*cfg.K+int(t)]++
			m.Ck[t]++
		}
	}
	m.LogLik = eval.LogJoint(c, z, cfg.K, cfg.Alpha, cfg.Beta)
	return m
}

// SizeBytes estimates the resident memory of the model's count
// matrices and vocabulary. Serving layers (internal/registry) use it,
// together with InferEngine.MemoryBytes, to enforce an LRU byte budget
// across co-resident models; it is an accounting estimate, not an exact
// allocator measurement.
func (m *Model) SizeBytes() int64 {
	n := int64(len(m.Cw))*4 + int64(len(m.Ck))*8
	for _, w := range m.Vocab {
		// String header (pointer+len) plus payload.
		n += int64(len(w)) + 16
	}
	return n
}

// Phi returns the MAP estimate φ̂_wk = (C_wk+β)/(C_k+β̄) for one word and
// topic.
func (m *Model) Phi(w, k int) float64 {
	betaBar := m.Cfg.Beta * float64(m.V)
	return (float64(m.Cw[w*m.Cfg.K+k]) + m.Cfg.Beta) / (float64(m.Ck[k]) + betaBar)
}

// TopWords returns the n most probable words of topic k, as vocabulary
// strings when the corpus had a vocabulary and as "word<id>" otherwise.
func (m *Model) TopWords(k, n int) []string {
	type ws struct {
		w int
		p float64
	}
	all := make([]ws, m.V)
	for w := 0; w < m.V; w++ {
		all[w] = ws{w, float64(m.Cw[w*m.Cfg.K+k])}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].p > all[b].p })
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		if m.Vocab != nil {
			out[i] = m.Vocab[all[i].w]
		} else {
			out[i] = fmt.Sprintf("word%d", all[i].w)
		}
	}
	return out
}

// TopicDiag holds per-topic health diagnostics; see Model.Diagnostics.
type TopicDiag = eval.TopicDiag

// Diagnostics returns per-topic diagnostics (token mass, distinct and
// effective word counts, top-word concentration, distance from the
// corpus distribution) — the screening one runs before trusting topics
// from a large-K model.
func (m *Model) Diagnostics() []TopicDiag {
	return eval.Diagnostics(m.Cw, m.V, m.Cfg.K, m.Cfg.Beta)
}

// Coherence returns the UMass topic-coherence score of topic k, computed
// from the top-n words' document co-occurrences in c. Higher (closer to
// zero) is better; use it to compare runs or detect junk topics.
func (m *Model) Coherence(c *Corpus, k, n int) float64 {
	top := eval.TopWordsByCount(m.Cw, m.V, m.Cfg.K, k, n)
	return eval.UMassCoherence(c, top)
}

// DocTopics infers the topic mixture θ̂ of an (unseen or training)
// document by folding in: a few MH sweeps over the document's tokens
// against the frozen model, O(1) per token. It is a thin wrapper around
// the InferEngine the model builds lazily on first use; callers
// answering many queries (or wanting batching) should build the engine
// themselves with NewInferEngine. It panics on word ids outside
// [0, m.V) — as the pre-engine Gibbs implementation did — and on
// models whose exported fields are inconsistent (non-positive priors,
// count slices not sized V×K / K).
func (m *Model) DocTopics(doc []int32, sweeps int, seed uint64) []float64 {
	if len(doc) == 0 {
		// Uniform, without paying the engine build — the pre-engine
		// behavior for empty documents.
		theta := make([]float64, m.Cfg.K)
		for i := range theta {
			theta[i] = 1 / float64(m.Cfg.K)
		}
		return theta
	}
	eng, err := m.inferEngine()
	if err == nil {
		var theta []float64
		theta, err = eng.Infer(doc, sweeps, seed)
		if err == nil {
			return theta
		}
	}
	panic(fmt.Sprintf("warplda: DocTopics: %v", err))
}
