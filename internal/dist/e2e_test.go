package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// e2eCorpus is shared by the end-to-end tests: big enough that two
// converged chains land within the elastic log-likelihood tolerance of
// each other, small enough to keep the race-enabled runs fast.
func e2eCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 300, V: 200, K: 5, MeanLen: 50, Alpha: 0.1, Beta: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func e2eConfig() sampler.Config {
	cfg := sampler.PaperDefaults(5)
	cfg.M = 2
	cfg.Seed = 1234
	return cfg
}

// referenceLL trains the in-process distributed sampler on the same
// corpus, config, and iteration budget and returns its log likelihood.
func referenceLL(t *testing.T, c *corpus.Corpus, cfg sampler.Config, p, iters int) float64 {
	t.Helper()
	d, err := cluster.NewDistributed(c, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		d.Iterate()
	}
	return sampler.LogJoint(c, d.Assignments(), cfg)
}

// requireWithinElasticTolerance matches internal/cluster's elastic
// restore bound: two independently evolved chains on the same corpus
// must agree on log likelihood within 5%.
func requireWithinElasticTolerance(t *testing.T, got, want float64) {
	t.Helper()
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("log likelihood = %v", got)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > 0.05 {
		t.Fatalf("log likelihood %v vs reference %v: relative gap %.4f > 0.05", got, want, rel)
	}
}

// testCoordinator builds a loopback coordinator with test-scale
// heartbeat timings.
func testCoordinator(t *testing.T, c *corpus.Corpus, cfg sampler.Config, iters, minWorkers int) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(CoordinatorConfig{
		Addr:              "127.0.0.1:0",
		Corpus:            c,
		Cfg:               cfg,
		Iters:             iters,
		MinWorkers:        minWorkers,
		CheckpointDir:     t.TempDir(),
		CheckpointEvery:   4,
		CheckpointKeep:    2,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func testWorkerConfig(t *testing.T, addr, id string) WorkerConfig {
	return WorkerConfig{
		Coordinator:  addr,
		ID:           id,
		DialTimeout:  2 * time.Second,
		RetryBackoff: 50 * time.Millisecond,
		MaxBackoff:   500 * time.Millisecond,
		MaxRetries:   200,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
		Logf:         t.Logf,
	}
}

// liveRun trains c on a loopback coordinator with p workers and returns
// the coordinator's trace.
func liveRun(t *testing.T, c *corpus.Corpus, cfg sampler.Config, p, iters int) sampler.Run {
	t.Helper()
	co := testCoordinator(t, c, cfg, iters, p)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	workerErr := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErr[i] = RunWorker(ctx, testWorkerConfig(t, co.Addr(), fmt.Sprintf("w%d", i)))
		}(i)
	}
	run, err := co.Serve(ctx)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	for i, err := range workerErr {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if len(run.Points) == 0 {
		t.Fatal("no evaluation points in trace")
	}
	if last := run.Points[len(run.Points)-1]; last.Iter != iters {
		t.Fatalf("final trace point at iteration %d, want %d", last.Iter, iters)
	}
	return run
}

// requireReplaysInProcess requires every point of a live trace to equal
// the log joint of the in-process Distributed sampler at the same
// iteration, seed and worker count: the live workers lay out every
// token as Distributed does, so the two run one chain.
func requireReplaysInProcess(t *testing.T, c *corpus.Corpus, cfg sampler.Config, p int, run sampler.Run) {
	t.Helper()
	d, err := cluster.NewDistributed(c, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	for _, pt := range run.Points {
		for ; iter < pt.Iter; iter++ {
			d.Iterate()
		}
		if want := sampler.LogJoint(c, d.Assignments(), cfg); pt.LogLik != want {
			t.Fatalf("p=%d: live log joint %v at iteration %d, in-process %v", p, pt.LogLik, pt.Iter, want)
		}
	}
}

// TestTwoWorkersMatchInProcess: a coordinator plus two workers over
// loopback TCP reach, at every trace point, exactly the log joint of
// the in-process distributed sampler on the same corpus, seed and
// worker count.
func TestTwoWorkersMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine training run")
	}
	c, cfg := e2eCorpus(t), e2eConfig()
	requireReplaysInProcess(t, c, cfg, 2, liveRun(t, c, cfg, 2, 12))
}

// TestThreeWorkersReplayInProcess: with three workers the blocks of
// three senders interleave at every receiver in whatever order the
// network delivers them, yet two live runs give one trace, and it is
// in-process Distributed's.
func TestThreeWorkersReplayInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine training run")
	}
	c, cfg := e2eCorpus(t), e2eConfig()
	first := liveRun(t, c, cfg, 3, 12)
	requireReplaysInProcess(t, c, cfg, 3, first)
	second := liveRun(t, c, cfg, 3, 12)
	for i, pt := range second.Points {
		if i >= len(first.Points) || pt.Iter != first.Points[i].Iter || pt.LogLik != first.Points[i].LogLik {
			t.Fatalf("two live runs differ at trace point %d: %+v vs %+v", i, pt, first.Points)
		}
	}
}

// TestAlphaVecMatchesInProcess: Assign carries an asymmetric prior, and
// two live workers train under it exactly as in-process Distributed
// does.
func TestAlphaVecMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine training run")
	}
	c, cfg := e2eCorpus(t), e2eConfig()
	cfg.AlphaVec = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	requireReplaysInProcess(t, c, cfg, 2, liveRun(t, c, cfg, 2, 8))
}

// TestWorkerDeathElasticRecovery kills one of two workers mid-run and
// starts a replacement under a new identity: the coordinator must abort
// the epoch, reform from the last committed checkpoint without operator
// intervention, and still finish within the elastic tolerance.
func TestWorkerDeathElasticRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine training run")
	}
	c := e2eCorpus(t)
	cfg := e2eConfig()
	const iters = 24
	want := referenceLL(t, c, cfg, 2, iters)

	var logMu sync.Mutex
	var logLines []string
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		logMu.Lock()
		logLines = append(logLines, line)
		logMu.Unlock()
		t.Log(line)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Addr: "127.0.0.1:0", Corpus: c, Cfg: cfg,
		Iters: iters, MinWorkers: 2,
		CheckpointDir: t.TempDir(), CheckpointEvery: 3, CheckpointKeep: 2,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		Logf:              logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var wg sync.WaitGroup

	// The victim runs under its own context; cancelling it severs the
	// connection mid-run — from the coordinator's side indistinguishable
	// from a crash.
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(victimCtx, testWorkerConfig(t, co.Addr(), "victim"))
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("victim: %v", err)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(ctx, testWorkerConfig(t, co.Addr(), "survivor")); err != nil {
			t.Errorf("survivor: %v", err)
		}
	}()

	// Kill the victim once training is demonstrably under way, then
	// bring up the replacement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			logMu.Lock()
			started := false
			for _, l := range logLines {
				if strings.Contains(l, "log likelihood") {
					started = true
					break
				}
			}
			logMu.Unlock()
			if started {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		killVictim()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ctx, testWorkerConfig(t, co.Addr(), "replacement")); err != nil {
				t.Errorf("replacement: %v", err)
			}
		}()
	}()

	run, err := co.Serve(ctx)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	if len(run.Points) == 0 {
		t.Fatal("no evaluation points in trace")
	}
	last := run.Points[len(run.Points)-1]
	if last.Iter != iters {
		t.Fatalf("final trace point at iteration %d, want %d", last.Iter, iters)
	}
	requireWithinElasticTolerance(t, last.LogLik, want)

	logMu.Lock()
	defer logMu.Unlock()
	reformed := false
	for _, l := range logLines {
		if strings.Contains(l, "reforming from last checkpoint") {
			reformed = true
			break
		}
	}
	if !reformed {
		t.Error("coordinator never reformed after the worker was killed; the failure was not exercised")
	}
}

// TestLateJoinerTriggersReform starts training on one worker and adds a
// second mid-run: the coordinator must fold it in at the next sync
// point, repartitioning across both through elastic resume.
func TestLateJoinerTriggersReform(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine training run")
	}
	c := e2eCorpus(t)
	cfg := e2eConfig()
	const iters = 16
	want := referenceLL(t, c, cfg, 1, iters)

	var logMu sync.Mutex
	var logLines []string
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		logMu.Lock()
		logLines = append(logLines, line)
		logMu.Unlock()
		t.Log(line)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Addr: "127.0.0.1:0", Corpus: c, Cfg: cfg,
		Iters: iters, MinWorkers: 1,
		CheckpointDir: t.TempDir(), CheckpointEvery: 3, CheckpointKeep: 2,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		Logf:              logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunWorker(ctx, testWorkerConfig(t, co.Addr(), "first")); err != nil {
			t.Errorf("first: %v", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Wait for the run to produce its first evaluation before joining,
		// so the join genuinely lands mid-training.
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			logMu.Lock()
			started := false
			for _, l := range logLines {
				if strings.Contains(l, "log likelihood") {
					started = true
					break
				}
			}
			logMu.Unlock()
			if started {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := RunWorker(ctx, testWorkerConfig(t, co.Addr(), "joiner")); err != nil {
			t.Errorf("joiner: %v", err)
		}
	}()

	run, err := co.Serve(ctx)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	last := run.Points[len(run.Points)-1]
	if last.Iter != iters {
		t.Fatalf("final trace point at iteration %d, want %d", last.Iter, iters)
	}
	requireWithinElasticTolerance(t, last.LogLik, want)

	logMu.Lock()
	defer logMu.Unlock()
	twoWorkerEpoch := false
	for _, l := range logLines {
		if strings.Contains(l, ": 2 workers, resuming") {
			twoWorkerEpoch = true
			break
		}
	}
	if !twoWorkerEpoch {
		t.Error("no epoch ever formed with 2 workers; the late join was not exercised")
	}
}
