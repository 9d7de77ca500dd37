package train_test

import (
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"warplda/internal/baselines"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

func testCorpus(seed uint64) *corpus.Corpus {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 200, V: 300, K: 8, MeanLen: 40, Alpha: 0.08, Beta: 0.05, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return c
}

func testCfg(k int) sampler.Config {
	cfg := sampler.PaperDefaults(k)
	cfg.M = 2
	return cfg
}

func newWarp(t *testing.T, c *corpus.Corpus, cfg sampler.Config) *core.Warp {
	t.Helper()
	w, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sameTrace compares two traces point by point: iteration schedule and
// log-likelihood must match to the bit (timing fields are wall-clock
// and legitimately differ).
func sameTrace(t *testing.T, got, want sampler.Run) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("trace has %d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		g, w := got.Points[i], want.Points[i]
		if g.Iter != w.Iter || g.LogLik != w.LogLik {
			t.Fatalf("trace point %d: (iter %d, ll %v), want (iter %d, ll %v)",
				i, g.Iter, g.LogLik, w.Iter, w.LogLik)
		}
	}
}

// TestCheckpointResumeBitIdentical is the PR's acceptance criterion: a
// serial WarpLDA run checkpointed at iteration N and resumed produces
// bit-identical assignments and log-likelihood trace to an
// uninterrupted run of the same length.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	c := testCorpus(1)
	cfg := testCfg(8)
	// n is a multiple of EvalEvery so the half run's final evaluation
	// falls on the shared schedule; interruption at an arbitrary
	// iteration is covered by TestInterruptCheckpointsAndResumes.
	const n, total = 6, 12

	full := newWarp(t, c, cfg)
	fullRes, err := train.Run(full, c, cfg, train.Options{Iters: total, EvalEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !fullRes.Completed {
		t.Fatal("uninterrupted run not completed")
	}

	dir := t.TempDir()
	halfRes, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
		Iters: n, EvalEvery: 3, CheckpointDir: dir, CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if halfRes.CheckpointPath == "" {
		t.Fatal("no checkpoint written")
	}
	ck, err := train.Load(halfRes.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter != n {
		t.Fatalf("checkpoint at iteration %d, want %d", ck.Iter, n)
	}

	resumed := newWarp(t, c, cfg)
	resRes, err := train.Run(resumed, c, cfg, train.Options{
		Iters: total, EvalEvery: 3, ResumeFrom: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resRes.Completed || resRes.Iter != total {
		t.Fatalf("resumed run: completed=%v iter=%d", resRes.Completed, resRes.Iter)
	}
	sameTrace(t, resRes.Run, fullRes.Run)
	if !reflect.DeepEqual(resumed.Assignments(), full.Assignments()) {
		t.Fatal("resumed assignments differ from uninterrupted run")
	}
}

// An interruption via Stop (the SIGTERM path) must finish the current
// iteration, checkpoint, and still resume bit-identically.
func TestInterruptCheckpointsAndResumes(t *testing.T) {
	c := testCorpus(2)
	cfg := testCfg(6)
	const total = 10

	full := newWarp(t, c, cfg)
	fullRes, err := train.Run(full, c, cfg, train.Options{Iters: total, EvalEvery: 3})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stop := make(chan struct{})
	interrupted := newWarp(t, c, cfg)
	intRes, err := train.Run(interrupted, c, cfg, train.Options{
		Iters: total, EvalEvery: 3, CheckpointDir: dir,
		Stop: stop,
		Progress: func(ev train.Event) {
			if ev.Iter == 4 {
				close(stop) // "SIGTERM" lands while iteration 4's bookkeeping runs
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !intRes.Interrupted || intRes.Completed {
		t.Fatalf("interrupted=%v completed=%v, want true/false", intRes.Interrupted, intRes.Completed)
	}
	if intRes.CheckpointPath == "" {
		t.Fatal("interruption did not write a checkpoint")
	}

	ck, err := train.Load(dir) // a directory resolves to its checkpoint file
	if err != nil {
		t.Fatal(err)
	}
	if ck.Iter != intRes.Iter {
		t.Fatalf("checkpoint at iteration %d, result says %d", ck.Iter, intRes.Iter)
	}
	resumed := newWarp(t, c, cfg)
	resRes, err := train.Run(resumed, c, cfg, train.Options{Iters: total, EvalEvery: 3, ResumeFrom: ck})
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, resRes.Run, fullRes.Run)
	if !reflect.DeepEqual(resumed.Assignments(), full.Assignments()) {
		t.Fatal("interrupt-resumed assignments differ from uninterrupted run")
	}
}

func TestBudgetStopsAndCheckpoints(t *testing.T) {
	c := testCorpus(3)
	cfg := testCfg(6)
	dir := t.TempDir()
	res, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
		Iters: 1000, EvalEvery: 10, CheckpointDir: dir, Budget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OverBudget || res.Completed {
		t.Fatalf("overBudget=%v completed=%v, want true/false", res.OverBudget, res.Completed)
	}
	if res.Iter != 1 {
		t.Fatalf("budget of 1ns ran %d iterations, want 1", res.Iter)
	}
	if res.CheckpointPath == "" {
		t.Fatal("no checkpoint after budget stop")
	}
	if _, err := os.Stat(res.CheckpointPath); err != nil {
		t.Fatalf("no checkpoint after budget stop: %v", err)
	}
	if _, err := train.Load(dir); err != nil {
		t.Fatalf("checkpoint directory does not resolve to the stamped checkpoint: %v", err)
	}
}

func TestProgressEvents(t *testing.T) {
	c := testCorpus(4)
	cfg := testCfg(6)
	dir := t.TempDir()
	var iters []int
	var evals, ckpts int
	_, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
		Iters: 6, EvalEvery: 2, CheckpointDir: dir, CheckpointEvery: 3,
		Progress: func(ev train.Event) {
			iters = append(iters, ev.Iter)
			if ev.Eval != nil {
				evals++
				if ev.Eval.TokensSec <= 0 || ev.Eval.IntervalTokensSec <= 0 {
					t.Errorf("iter %d: throughputs %g / %g, want > 0", ev.Iter, ev.Eval.TokensSec, ev.Eval.IntervalTokensSec)
				}
			}
			if ev.Checkpoint != "" {
				ckpts++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 6 {
		t.Fatalf("progress called %d times, want 6", len(iters))
	}
	if evals != 3 { // iters 2, 4, 6
		t.Fatalf("%d eval events, want 3", evals)
	}
	if ckpts != 2 { // iters 3 and 6
		t.Fatalf("%d checkpoint events, want 2", ckpts)
	}
}

func TestRunValidatesOptions(t *testing.T) {
	c := testCorpus(5)
	cfg := testCfg(6)
	if _, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{Iters: 0}); err == nil {
		t.Fatal("Iters=0 accepted")
	}
	// A sampler with neither sharded state nor a state stream cannot be
	// checkpointed: the run fails before its first iteration, not at its
	// first checkpoint.
	opaque := struct{ sampler.Sampler }{newWarp(t, c, cfg)}
	if _, err := train.Run(opaque, c, cfg, train.Options{
		Iters: 2, CheckpointDir: t.TempDir(),
		Progress: func(train.Event) { t.Fatal("iterated a sampler it cannot checkpoint") },
	}); err == nil {
		t.Fatal("sampler without checkpointable state accepted")
	}
}

func TestResumeVerifies(t *testing.T) {
	c := testCorpus(6)
	cfg := testCfg(6)
	dir := t.TempDir()
	if _, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{Iters: 4, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ck, err := train.Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong sampler", func(t *testing.T) {
		g, err := baselines.NewCGS(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := train.Run(g, c, cfg, train.Options{Iters: 8, ResumeFrom: ck}); err == nil {
			t.Fatal("WarpLDA checkpoint accepted by CGS")
		}
	})
	t.Run("wrong config", func(t *testing.T) {
		cfg2 := cfg
		cfg2.Seed++
		if _, err := train.Run(newWarp(t, c, cfg2), c, cfg2, train.Options{Iters: 8, ResumeFrom: ck}); err == nil {
			t.Fatal("checkpoint accepted under a different config")
		}
	})
	t.Run("wrong corpus", func(t *testing.T) {
		c2 := testCorpus(7)
		if _, err := train.Run(newWarp(t, c2, cfg), c2, cfg, train.Options{Iters: 8, ResumeFrom: ck}); err == nil {
			t.Fatal("checkpoint accepted against a different corpus")
		}
	})
	t.Run("past target", func(t *testing.T) {
		if _, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{Iters: 2, ResumeFrom: ck}); err == nil {
			t.Fatal("checkpoint past the iteration target accepted")
		}
	})
	t.Run("exact target is a no-op", func(t *testing.T) {
		res, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{Iters: 4, ResumeFrom: ck})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Iter != 4 {
			t.Fatalf("completed=%v iter=%d", res.Completed, res.Iter)
		}
	})
}

// oracleless is a WarpLDA sampler whose evaluations must come from its
// own phase sums: a call of Assignments fails the test.
type oracleless struct {
	*core.Warp
	t *testing.T
}

func (o oracleless) Assignments() [][]int32 {
	o.t.Error("evaluation fell back to the oracle over Assignments")
	return o.Warp.Assignments()
}

// TestEvaluationsUsePhaseSums: train.Run and sampler.Train flag every
// iteration that is evaluated, the last one included when Iters is not a
// multiple of EvalEvery, so no evaluation of core falls back to the
// oracle, and each equals the oracle on the same state.
func TestEvaluationsUsePhaseSums(t *testing.T) {
	c := testCorpus(5)
	cfg := testCfg(8)
	s := oracleless{newWarp(t, c, cfg), t}
	var iters []int
	_, err := train.Run(s, c, cfg, train.Options{
		Iters: 7, EvalEvery: 2,
		Progress: func(ev train.Event) {
			if ev.Eval == nil {
				return
			}
			iters = append(iters, ev.Iter)
			want := sampler.LogJoint(c, s.Warp.Assignments(), cfg)
			if rel := math.Abs(ev.Eval.LogLik-want) / math.Abs(want); !(rel <= 1e-9) {
				t.Errorf("iteration %d: log joint %v, oracle %v", ev.Iter, ev.Eval.LogLik, want)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(iters, []int{2, 4, 6, 7}) {
		t.Fatalf("evaluated iterations %v, want [2 4 6 7]", iters)
	}
	run := sampler.Train(oracleless{newWarp(t, c, cfg), t}, c, cfg, 7, 2)
	if n := len(run.Points); n != 4 || run.Points[n-1].Iter != 7 {
		t.Fatalf("sampler.Train trace %+v, want points at 2, 4, 6 and 7", run.Points)
	}
}

// TestEvalTimeOnlyWithEval: an event carries an evaluation's wall time
// exactly when it carries the evaluation, for a sampler that sums its
// own log joint and for one the oracle evaluates.
func TestEvalTimeOnlyWithEval(t *testing.T) {
	c := testCorpus(6)
	cfg := testCfg(6)
	cgs, err := baselines.NewCGS(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sampler.Sampler{newWarp(t, c, cfg), cgs} {
		evals := 0
		_, err := train.Run(s, c, cfg, train.Options{
			Iters: 5, EvalEvery: 2,
			Progress: func(ev train.Event) {
				if (ev.EvalTime > 0) != (ev.Eval != nil) {
					t.Errorf("%s iteration %d: eval time %v with eval %v", s.Name(), ev.Iter, ev.EvalTime, ev.Eval != nil)
				}
				if ev.Eval != nil {
					evals++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if evals != 3 {
			t.Fatalf("%s: %d evaluations, want 3", s.Name(), evals)
		}
	}
}
