// Package sampler defines the interface shared by every LDA inference
// algorithm in this repository and a trainer that runs iterations while
// recording the convergence metrics the paper's figures plot
// (log-likelihood per iteration, per wall-clock second, and token
// throughput).
package sampler

import (
	"fmt"
	"io"
	"time"

	"warplda/internal/corpus"
	"warplda/internal/eval"
)

// Config carries the hyper-parameters common to all samplers. The paper
// sets α = 50/K and β = 0.01 (Section 6.1).
type Config struct {
	K     int     // number of topics
	Alpha float64 // symmetric document-topic prior
	Beta  float64 // symmetric topic-word prior
	M     int     // MH steps per token (MH-based samplers; ignored otherwise)
	Seed  uint64
	// Threads is the number of worker goroutines for samplers that
	// support parallel phases (0 or 1 = serial).
	Threads int
	// AlphaVec, when non-nil, is an asymmetric document-topic prior of
	// length K, overriding Alpha. The paper's equations are written with
	// per-topic α_k; WarpLDA supports it natively (the smoothing part of
	// q_doc becomes an alias table over α instead of a uniform draw).
	AlphaVec []float64
}

// PaperDefaults returns the paper's hyper-parameter settings for k topics.
func PaperDefaults(k int) Config {
	return Config{K: k, Alpha: 50 / float64(k), Beta: 0.01, M: 1, Seed: 42}
}

// Validate reports configuration errors before a sampler is built.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("sampler: K = %d, want > 0", c.K)
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		return fmt.Errorf("sampler: non-positive priors α=%g β=%g", c.Alpha, c.Beta)
	}
	if c.M < 0 {
		return fmt.Errorf("sampler: M = %d, want >= 0", c.M)
	}
	if c.AlphaVec != nil {
		if len(c.AlphaVec) != c.K {
			return fmt.Errorf("sampler: len(AlphaVec) = %d, want K = %d", len(c.AlphaVec), c.K)
		}
		for k, a := range c.AlphaVec {
			if a <= 0 {
				return fmt.Errorf("sampler: AlphaVec[%d] = %g, want > 0", k, a)
			}
		}
	}
	return nil
}

// Alphas returns the per-topic prior vector: AlphaVec when set, else the
// symmetric expansion of Alpha. The returned slice must not be mutated.
func (c Config) Alphas() []float64 {
	if c.AlphaVec != nil {
		return c.AlphaVec
	}
	v := make([]float64, c.K)
	for k := range v {
		v[k] = c.Alpha
	}
	return v
}

// AlphaBar returns Σ_k α_k.
func (c Config) AlphaBar() float64 {
	if c.AlphaVec == nil {
		return c.Alpha * float64(c.K)
	}
	var s float64
	for _, a := range c.AlphaVec {
		s += a
	}
	return s
}

// Sampler is one LDA inference algorithm bound to a corpus.
type Sampler interface {
	// Name identifies the algorithm (for reports).
	Name() string
	// Iterate performs one full pass over all tokens.
	Iterate()
	// Assignments returns the current topic of every token, shaped like
	// corpus.Docs. Implementations may return an internal buffer; callers
	// must not mutate it and must copy if they need it across Iterate calls.
	Assignments() [][]int32
}

// PhaseEvaluator is implemented by samplers that sum the log joint
// from the count rows their phases build instead of from Assignments:
// the WarpLDA samplers. Loop calls EvalNext before every Iterate after
// which an evaluation is due, so the other iterations pay nothing.
type PhaseEvaluator interface {
	// EvalNext asks the coming Iterate to sum the doc terms of the log
	// joint while its doc phase counts each document.
	EvalNext()
	// LogJoint returns log p(W, Z | α, β) of the current state, and
	// false unless the last Iterate was asked to sum it and the state
	// has not changed since (a restore, say).
	LogJoint() (float64, bool)
}

// LogJoint is the log joint of the assignments z of c under cfg's
// priors, the α vector when one is set: internal/eval's oracle, which
// counts from the assignments.
func LogJoint(c corpus.Provider, z [][]int32, cfg Config) float64 {
	if cfg.AlphaVec != nil {
		return eval.LogJointAsym(c, z, cfg.AlphaVec, cfg.Beta)
	}
	return eval.LogJoint(c, z, cfg.K, cfg.Alpha, cfg.Beta)
}

// Sharded is implemented by samplers whose mutable state is divided
// among workers — physically partitioned tokens in the distributed
// execution model, or per-worker row ranges of a shared token matrix
// in the threaded shared-memory sampler. It is what lets the
// checkpoint layer write one file per worker concurrently and resume
// across topology changes (a different -threads).
//
// The shard streams written by ShardTo together hold the sampler's
// complete mutable state — assignments and pending proposals; the
// WarpLDA samplers key every draw by (seed, iteration, phase, key) and
// keep no generator state — so restoring all of them via RestoreShards
// continues the run where it stood.
type Sharded interface {
	Sampler
	// NumShards returns the number of state shards (the worker count).
	NumShards() int
	// ShardTo serializes shard i's state (its tokens or rows). It must
	// only be called between Iterate calls. Distinct shards may be
	// written concurrently.
	ShardTo(i int, w io.Writer) error
	// RestoreShards replaces the sampler's state with the union of the
	// given shard streams, written by ShardTo after iter iterations on
	// this algorithm, or one that shares its shard stream, over the
	// same corpus and config and ANY worker count; the next Iterate is
	// then iteration iter. On error the sampler's prior state is left
	// untouched.
	RestoreShards(iter int, shards []io.Reader) error
}

// Rewinder is implemented by samplers that can lose passes: the live
// cluster (internal/dist), whose members may die mid-pass or upload
// state that fails validation. Lost reports whether state was lost
// since the last RestoreShards; nothing may then be evaluated or
// checkpointed until the trainer restores the newest checkpoint.
type Rewinder interface {
	Sharded
	Lost() bool
}

// Point is one evaluation of a training run.
type Point struct {
	Iter    int
	Elapsed time.Duration // cumulative sampling time, excluding evaluation
	LogLik  float64
	// TokensSec is the mean throughput over the whole run so far
	// (tokens·iterations / total sampling time).
	TokensSec float64
	// IntervalTokensSec is the instantaneous throughput since the
	// previous evaluation point (or the run start). The cumulative mean
	// above hides late-run slowdowns; convergence-versus-time plots that
	// care about them should use this field.
	IntervalTokensSec float64
}

// Run is the trace of a training run.
type Run struct {
	Sampler string
	Points  []Point
}

// Loop is the resumable iterate/eval core shared by Train and the
// internal/train orchestrator: it times iterations (excluding
// evaluation cost, so convergence-by-time plots reflect sampling cost
// only, as in the paper), evaluates the log joint likelihood on
// schedule, and exposes its progress as plain fields a checkpoint can
// serialize and SetProgress can restore.
type Loop struct {
	Sampler   Sampler
	Corpus    corpus.Provider
	Cfg       Config
	EvalEvery int
	// Iters, when > 0, is the run's last iteration, which is evaluated
	// whatever EvalEvery says.
	Iters int

	// Iter is the number of completed iterations; Elapsed the cumulative
	// sampling time; Trace the recorded evaluation points.
	Iter    int
	Elapsed time.Duration
	Trace   Run

	tokens          int
	lastEvalIter    int
	lastEvalElapsed time.Duration
}

// NewLoop builds a loop over s. evalEvery <= 0 means every iteration.
// c may be any corpus provider — in-memory or memory-mapped — and must
// be the one s was built over.
func NewLoop(s Sampler, c corpus.Provider, cfg Config, evalEvery int) *Loop {
	if evalEvery <= 0 {
		evalEvery = 1
	}
	return &Loop{
		Sampler:   s,
		Corpus:    c,
		Cfg:       cfg,
		EvalEvery: evalEvery,
		Trace:     Run{Sampler: s.Name()},
		tokens:    c.NumTokens(),
	}
}

// SetProgress primes the loop as if iter iterations had already run,
// taking elapsed sampling time and the recorded trace from a
// checkpoint. The evaluation schedule continues exactly as it would
// have in the uninterrupted run.
func (l *Loop) SetProgress(iter int, elapsed time.Duration, trace Run) {
	l.Iter = iter
	l.Elapsed = elapsed
	l.Trace = trace
	if l.Trace.Sampler == "" {
		l.Trace.Sampler = l.Sampler.Name()
	}
	l.lastEvalIter = 0
	l.lastEvalElapsed = 0
	if n := len(trace.Points); n > 0 {
		l.lastEvalIter = trace.Points[n-1].Iter
		l.lastEvalElapsed = trace.Points[n-1].Elapsed
	}
}

// due reports whether an evaluation follows iteration iter: every
// EvalEvery-th, and the run's last.
func (l *Loop) due(iter int) bool { return iter%l.EvalEvery == 0 || iter == l.Iters }

// Step runs one timed iteration. When an evaluation will follow it, a
// PhaseEvaluator is asked to sum the log joint as it goes.
func (l *Loop) Step() {
	if e, ok := l.Sampler.(PhaseEvaluator); ok && l.due(l.Iter+1) {
		e.EvalNext()
	}
	start := time.Now()
	l.Sampler.Iterate()
	l.Elapsed += time.Since(start)
	l.Iter++
}

// Eval records an evaluation point if one is due after the current
// iteration — every EvalEvery iterations, plus the run's last (Iters).
// It returns the point and whether one was recorded; an iteration
// already evaluated is never evaluated twice. The log joint is the
// sampler's own sum when it is a PhaseEvaluator that summed this state,
// else LogJoint over its Assignments.
func (l *Loop) Eval() (Point, bool) {
	if !l.due(l.Iter) || l.Iter == l.lastEvalIter {
		return Point{}, false
	}
	ll, ok := 0.0, false
	if e, is := l.Sampler.(PhaseEvaluator); is {
		ll, ok = e.LogJoint()
	}
	if !ok {
		ll = LogJoint(l.Corpus, l.Sampler.Assignments(), l.Cfg)
	}
	tps := 0.0
	if sec := l.Elapsed.Seconds(); sec > 0 {
		tps = float64(l.tokens*l.Iter) / sec
	}
	itps := 0.0
	if sec := (l.Elapsed - l.lastEvalElapsed).Seconds(); sec > 0 {
		itps = float64(l.tokens*(l.Iter-l.lastEvalIter)) / sec
	}
	p := Point{Iter: l.Iter, Elapsed: l.Elapsed, LogLik: ll, TokensSec: tps, IntervalTokensSec: itps}
	l.Trace.Points = append(l.Trace.Points, p)
	l.lastEvalIter = l.Iter
	l.lastEvalElapsed = l.Elapsed
	return p, true
}

// Train runs iters iterations of s on c, evaluating the log joint
// likelihood every evalEvery iterations (and after the last). It is a
// thin wrapper over Loop; checkpointed / budgeted / interruptible
// training lives in the internal/train orchestrator.
func Train(s Sampler, c corpus.Provider, cfg Config, iters, evalEvery int) Run {
	l := NewLoop(s, c, cfg, evalEvery)
	l.Iters = iters
	for l.Iter < iters {
		l.Step()
		l.Eval()
	}
	return l.Trace
}

// Final returns the last recorded point of the run.
func (r Run) Final() Point {
	if len(r.Points) == 0 {
		return Point{}
	}
	return r.Points[len(r.Points)-1]
}

// IterToReach returns the first iteration whose log-likelihood is ≥ ll,
// or -1 if never reached. This backs the paper's "ratio of iteration"
// columns in Figure 5.
func (r Run) IterToReach(ll float64) int {
	for _, p := range r.Points {
		if p.LogLik >= ll {
			return p.Iter
		}
	}
	return -1
}

// TimeToReach returns the elapsed sampling time of the first point with
// log-likelihood ≥ ll, or -1 if never reached. Backs the "ratio of time"
// columns in Figure 5.
func (r Run) TimeToReach(ll float64) time.Duration {
	for _, p := range r.Points {
		if p.LogLik >= ll {
			return p.Elapsed
		}
	}
	return -1
}

// CopyAssignments deep-copies an assignment matrix (for tests that
// compare states across iterations).
func CopyAssignments(z [][]int32) [][]int32 {
	out := make([][]int32, len(z))
	for i, zi := range z {
		out[i] = append([]int32(nil), zi...)
	}
	return out
}
