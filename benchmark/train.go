package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"warplda"
	"warplda/internal/core"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// tracedWarp records a span around each call train.Run makes into
// core. It embeds *core.Warp so it stays a sampler.Sharded and the
// checkpoints keep their sharded shape.
type tracedWarp struct {
	*core.Warp
	tr     *tracer
	tokens int64
	// iterSpan and iter name the iteration in progress. They are written
	// between iterations only, by the goroutine that calls Iterate.
	iterSpan int32
	iter     int64
}

func (t *tracedWarp) Iterate() {
	sp := t.tr.begin("core.iterate", t.iterSpan, t.iter)
	t.Warp.Iterate()
	t.tr.end(sp)
	t.tr.count("core.iterate.tokens", t.tokens)
}

func (t *tracedWarp) ShardTo(i int, w io.Writer) error {
	sp := t.tr.begin("core.shard_to", t.iterSpan, t.iter)
	err := t.Warp.ShardTo(i, w)
	t.tr.end(sp)
	t.tr.count("core.shard_to.calls", 1)
	return err
}

// trainState is a corpus loaded and a sampler constructed over it:
// what setup_s times on a train workload.
type trainState struct {
	c     warplda.CorpusProvider
	warp  *core.Warp
	close func()
}

// setupTrain is corpus file -> constructed sampler: ReadUCI, or
// BuildCorpusCache + OpenMappedCorpus, then NewSampler.
func setupTrain(w workload, corpusPath, dir string, cfg warplda.Config) (*trainState, error) {
	st := &trainState{close: func() {}}
	if w.Mapped {
		cache := filepath.Join(dir, "docword.warpcorpus")
		if err := os.Remove(cache); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		f, err := os.Open(corpusPath)
		if err != nil {
			return nil, err
		}
		_, err = warplda.BuildCorpusCache(f, cache, warplda.CorpusStreamOptions{TmpDir: dir})
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("building corpus cache: %w", err)
		}
		mc, err := warplda.OpenMappedCorpus(cache)
		if err != nil {
			return nil, fmt.Errorf("mapping corpus cache: %w", err)
		}
		st.c, st.close = mc, func() { mc.Close() }
	} else {
		c, err := readUCIFile(corpusPath)
		if err != nil {
			return nil, err
		}
		st.c = c
	}
	s, err := warplda.NewSampler(warplda.WarpLDA, st.c, cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.warp = s.(*core.Warp)
	return st, nil
}

// pinThread binds the calling goroutine to its OS thread and that
// thread to one processor, and returns the function that undoes both
// (calling it twice is harmless). A one-thread sampler that the kernel
// moves between processors loses its cache each time and runs in two
// speeds a third apart; pinned, it repeats within a few percent. Where
// the processor is not ours to ask for, the run goes on unpinned.
func pinThread(cpu int) (undo func()) {
	type cpuMask [16]uint64
	affinity := func(call uintptr, tid int, mask *cpuMask) bool {
		_, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
		return errno == 0
	}
	var old, one cpuMask
	runtime.LockOSThread()
	if !affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &old) {
		runtime.UnlockOSThread()
		return func() {}
	}
	one[cpu/64] = 1 << (cpu % 64)
	affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &one)
	var once sync.Once
	return func() {
		once.Do(func() {
			// Threads the runtime started from the pinned one inherited
			// its mask; give every thread of the process the old one.
			tasks, _ := os.ReadDir("/proc/self/task")
			for _, t := range tasks {
				if tid, err := strconv.Atoi(t.Name()); err == nil {
					affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &old)
				}
			}
			runtime.UnlockOSThread()
		})
	}
}

// trainSegments is how many times a train run sets up and trains. A
// sampler's speed depends on where its memory happened to land: the
// same seed runs up to one and a half times slower in one process than
// in the next, for as long as the sampler lives. Each segment is a
// fresh set-up, so a run sees several placements and reports the
// quiet one.
const trainSegments = 5

// iterRec is what one progress callback shows of one iteration.
type iterRec struct {
	wallMs float64 // since the previous callback
	cpuMs  float64 // the process's CPU time over the same interval
	ll     float64 // log-likelihood per token; NaN when not evaluated
	ckpt   bool
	traced bool // the iteration recorded spans
}

func runTrain(rc *runCtx) (*record, error) {
	w, sc := rc.w, rc.sc
	res := newRecord()
	cfg := trainConfig(w, sc, rc.seed, rc.threads)

	t0 := time.Now()
	corpusPath := filepath.Join(rc.dir, "docword.txt")
	stats, err := writeTrainCorpus(w, sc, rc.seed, corpusPath)
	if err != nil {
		return nil, fmt.Errorf("writing corpus fixture: %w", err)
	}
	res.Info["fixture_s"] = time.Since(t0).Seconds()
	res.Info["corpus_docs"], res.Info["corpus_tokens"], res.Info["corpus_words"] = float64(stats.D), float64(stats.T), float64(stats.V)
	tokens := stats.T

	ckptDir := ""
	if w.CkptEvery > 0 {
		ckptDir = filepath.Join(rc.dir, "ckpt")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
	}
	target := w.TargetLL
	if sc.Name == "tiny" {
		target = w.TargetLLTiny
	}
	unpin := func() {}
	if !w.Threaded {
		unpin = pinThread(runtime.NumCPU() - 1)
	}
	defer unpin()

	// A segment trains until its share of the window is over,
	// QualityIter is behind it and the target log-likelihood is reached,
	// so a slower machine still reports every metric; four times its
	// share (five seconds at least) without the target is a failure.
	window := time.Duration(rc.seconds * float64(time.Second) / trainSegments)
	giveUp := max(4*window, 5*time.Second)
	// Traced runs record alternate pairs of iterations (a pair is one
	// plain iteration and one with an evaluation).
	tracedPair := func(iter int) bool { return ((iter-1)/2)%2 == 1 }

	var (
		st       *trainState
		setups   []float64
		recs     []iterRec       // every segment's iterations
		points   []sampler.Point // the last segment's evaluations
		lastRecs []iterRec       // the last segment's iterations
		reached  = true
	)
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	guard := startNoiseGuard(sc.SpinIters)
	for seg := 0; seg < trainSegments; seg++ {
		if st != nil {
			st.close()
			st = nil
		}
		// Give the previous segment's memory back, so that peak_rss_mb is
		// one sampler's and the next one lands on fresh pages.
		debug.FreeOSMemory()

		sp := rc.tr.begin("train.setup", noSpan, int64(seg))
		t := time.Now()
		st, err = setupTrain(w, corpusPath, rc.dir, cfg)
		setups = append(setups, time.Since(t).Seconds())
		rc.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if st.c.NumTokens() != tokens {
			return nil, fmt.Errorf("corpus loaded with %d tokens, generated with %d", st.c.NumTokens(), tokens)
		}

		var s warplda.Sampler = st.warp
		var tw *tracedWarp
		runSpan := noSpan
		if rc.tr != nil {
			tw = &tracedWarp{Warp: st.warp, tr: rc.tr, tokens: int64(tokens), iterSpan: noSpan}
			s = tw
		}
		stop := make(chan struct{})
		var stopOnce sync.Once
		segReached := false
		lastRecs = lastRecs[:0]
		var start, prev time.Time
		var prevCPU time.Duration
		progress := func(ev train.Event) {
			now, cpu := time.Now(), selfCPU()
			rec := iterRec{
				wallMs: float64(now.Sub(prev).Nanoseconds()) / 1e6, cpuMs: float64((cpu - prevCPU).Nanoseconds()) / 1e6,
				ll: math.NaN(), ckpt: ev.Checkpoint != "", traced: tw != nil && tw.iterSpan != noSpan,
			}
			if ev.Eval != nil {
				rec.ll = ev.Eval.LogLik / float64(tokens)
				if rec.ll >= target {
					segReached = true
				}
			}
			lastRecs = append(lastRecs, rec)
			if tw != nil {
				rc.tr.end(tw.iterSpan)
				rc.tr.setPaused(!tracedPair(ev.Iter + 1))
				tw.iter = int64(seg)<<32 | int64(ev.Iter+1)
				tw.iterSpan = rc.tr.begin("train.iteration", runSpan, tw.iter)
			}
			since := now.Sub(start)
			if (since >= window && ev.Iter >= w.QualityIter && segReached) || since >= giveUp {
				stopOnce.Do(func() { close(stop) })
			}
			prev, prevCPU = time.Now(), selfCPU()
		}
		runtime.GC()
		if tw != nil {
			runSpan = rc.tr.begin("train.run", noSpan, int64(seg))
			rc.tr.setPaused(!tracedPair(1))
			tw.iter = int64(seg)<<32 | 1
			tw.iterSpan = rc.tr.begin("train.iteration", runSpan, tw.iter)
		}
		start, prevCPU = time.Now(), selfCPU()
		prev = start
		tres, err := train.Run(s, st.c, cfg, train.Options{
			Iters: 1 << 30, EvalEvery: 2,
			CheckpointDir: ckptDir, CheckpointEvery: w.CkptEvery, CheckpointKeep: 2,
			Stop: stop, Progress: progress,
		})
		if tw != nil {
			rc.tr.setPaused(false)
			rc.tr.end(runSpan)
		}
		if err != nil {
			return nil, fmt.Errorf("train.Run: %w", err)
		}
		recs = append(recs, lastRecs...)
		points = tres.Run.Points
		reached = reached && segReached
	}
	rssMB := selfPeakRSSMB()
	guard.end(res)
	unpin()

	// Every iteration by what it carried: nothing (its wall time is its
	// sampling time), an evaluation, or a checkpoint.
	n := len(recs)
	var plainMs, plainCPUMs, evalMs, ckptMs []float64
	for _, r := range recs {
		switch {
		case r.ckpt:
			ckptMs = append(ckptMs, r.wallMs)
		case !math.IsNaN(r.ll):
			evalMs = append(evalMs, r.wallMs)
		default:
			plainMs = append(plainMs, r.wallMs)
			plainCPUMs = append(plainCPUMs, r.cpuMs)
		}
	}
	if len(plainMs) == 0 || len(evalMs) == 0 || len(points) == 0 {
		return nil, fmt.Errorf("train.Run completed %d iterations, too few to measure", n)
	}
	// What the run's wall time would have been had every iteration of
	// each kind taken its quiet time.
	stallMs := evalMs
	quietWallMs := float64(len(plainMs))*quiet(plainMs) + float64(len(evalMs))*quiet(evalMs)
	if len(ckptMs) > 0 {
		stallMs = ckptMs
		quietWallMs += float64(len(ckptMs)) * quiet(ckptMs)
	}

	// Convergence, from the last segment (every segment starts from the
	// same seed).
	llAt := func(iter int) float64 {
		if iter >= 1 && iter <= len(lastRecs) {
			return lastRecs[iter-1].ll
		}
		return math.NaN()
	}
	itersToLL, timeToLL := math.NaN(), math.NaN()
	prevLL, prevIt, prevEl := math.NaN(), 0, 0.0
	for _, p := range points {
		ll := p.LogLik / float64(tokens)
		res.LLTrace = append(res.LLTrace, ll)
		if ll >= target && math.IsNaN(itersToLL) {
			f := 1.0
			if !math.IsNaN(prevLL) && ll > prevLL {
				f = (target - prevLL) / (ll - prevLL)
			}
			itersToLL = float64(prevIt) + f*float64(p.Iter-prevIt)
			timeToLL = prevEl + f*(p.Elapsed.Seconds()-prevEl)
		}
		prevLL, prevIt, prevEl = ll, p.Iter, p.Elapsed.Seconds()
	}
	last := points[len(points)-1]
	finalLL := last.LogLik / float64(tokens)

	res.Attempted = int64(n)
	if !reached {
		res.Failed = int64(n)
	}
	res.Series = plainMs
	res.Info["iterations"] = float64(n)
	res.Info["last_segment_tokens_per_s"] = last.TokensSec
	res.Info["quiet_share"] = quietShare(plainMs)
	res.Info["iters_to_ll"] = itersToLL
	res.Info["time_to_ll_s"] = timeToLL
	res.Info["target_ll_per_token"] = target
	res.Info["final_ll_per_token"] = finalLL

	// Correctness, on the state the last segment left behind.
	var sum int64
	for _, c := range st.warp.GlobalCounts() {
		sum += int64(c)
	}
	res.check("global counts sum to T", sum == int64(tokens), "sum=%d T=%d", sum, tokens)
	res.check("every assignment in [0,K)", assignmentsInRange(st.warp.Assignments(), st.c, cfg.K), "K=%d", cfg.K)
	res.check("log-likelihood finite and above floor", !math.IsNaN(finalLL) && !math.IsInf(finalLL, 0) && finalLL > w.FloorLL,
		"final=%.4f floor=%.2f", finalLL, w.FloorLL)
	res.check("target log-likelihood reached in every segment", reached, "target=%.3f final=%.4f", target, finalLL)
	res.check("quality iteration evaluated", !math.IsNaN(llAt(w.QualityIter)), "iteration %d of %d", w.QualityIter, len(lastRecs))
	if ckptDir != "" {
		ck, err := train.Load(ckptDir)
		ok := err == nil
		detail := ""
		if ok {
			err = ck.Verify(st.warp.Name(), train.CorpusFingerprint(st.c), cfg)
			ok = err == nil && ck.Iter >= w.CkptEvery
			detail = fmt.Sprintf("iteration %d", ck.Iter)
		}
		if err != nil {
			detail = err.Error()
		}
		res.check("newest checkpoint loads and verifies", ok, "%s", detail)
	}

	if rc.tr != nil {
		pl, err := trainLayerMetrics(rc, st, cfg, corpusPath, recs, tokens, itersToLL)
		if err != nil {
			return nil, err
		}
		pl["process.cpu_us_per_token"] = quiet(plainCPUMs) * 1e3 / float64(tokens)
		res.Metrics = pl
		return res, nil
	}
	res.Metrics = map[string]float64{
		"tokens_per_s":  float64(tokens) / (quiet(plainMs) / 1e3),
		"ops_per_s":     float64(n) / (quietWallMs / 1e3),
		"op_p50_ms":     quiet(plainMs),
		"op_tail_ms":    quiet(stallMs),
		"nll_per_token": -llAt(w.QualityIter),
		"peak_rss_mb":   rssMB,
		"setup_s":       median(setups),
	}
	return res, nil
}

func assignmentsInRange(z [][]int32, c warplda.CorpusProvider, k int) bool {
	if len(z) != c.NumDocs() {
		return false
	}
	for d, zd := range z {
		if len(zd) != len(c.Doc(d)) {
			return false
		}
		for _, t := range zd {
			if t < 0 || int(t) >= k {
				return false
			}
		}
	}
	return true
}

// trainLayerMetrics derives the train-side per-layer numbers of a
// traced train run from its spans, then runs the layer probes.
func trainLayerMetrics(rc *runCtx, st *trainState, cfg warplda.Config, corpusPath string,
	recs []iterRec, tokens int, itersToLL float64) (map[string]float64, error) {
	iterateMs := rc.tr.durationsMs("core.iterate")
	if len(iterateMs) == 0 {
		return nil, fmt.Errorf("the traced run recorded no core.iterate span")
	}
	iterMed := median(iterateMs)

	// Of a recorded iteration's wall time, what core.iterate does not
	// cover is evaluation, checkpoint or the loop itself, told apart by
	// what the progress callback reported for that iteration. Shares are
	// of medians per kind weighted by how often each kind occurs, so a
	// disturbed stretch does not masquerade as a stall.
	// Tracing overhead: plain iterations alternate between recorded and
	// not; neighbours share whatever disturbed them, so take the median
	// ratio of a recorded one to its unrecorded neighbour.
	var plain, eval, ckpt, ratios []float64
	var prevPlain *iterRec
	for i := range recs {
		r := &recs[i]
		switch {
		case r.ckpt:
			ckpt = append(ckpt, r.wallMs)
		case !math.IsNaN(r.ll):
			eval = append(eval, r.wallMs)
		default:
			plain = append(plain, r.wallMs)
			switch {
			case prevPlain == nil || prevPlain.traced == r.traced:
				prevPlain = r
				continue
			case r.traced:
				ratios = append(ratios, r.wallMs/prevPlain.wallMs)
			default:
				ratios = append(ratios, prevPlain.wallMs/r.wallMs)
			}
			prevPlain = nil
		}
	}
	n := float64(len(recs))
	evalMs := math.Max(0, median(eval)-iterMed)
	ckptMs := 0.0
	if len(ckpt) > 0 {
		ckptMs = math.Max(0, median(ckpt)-median(eval))
	}
	loopMs := math.Max(0, median(plain)-iterMed)
	evalTotal := evalMs * float64(len(eval)+len(ckpt))
	ckptTotal := ckptMs * float64(len(ckpt))
	wallTotal := n*iterMed + evalTotal + ckptTotal + n*loopMs
	pl := map[string]float64{
		"train.ckpt_stall_share":    ckptTotal / wallTotal,
		"train.eval_share":          evalTotal / wallTotal,
		"train.loop_overhead_share": n * loopMs / wallTotal,
		"train.iters_to_ll":         itersToLL,
		"trace.overhead_share":      median(ratios) - 1,
	}
	if math.IsNaN(itersToLL) {
		pl["train.iters_to_ll"] = 0
	}
	zeroServeLayers(pl)

	in := probeInput{
		corpusPath: corpusPath, c: st.c, cfg: cfg, warp: st.warp,
		threads: rc.threads, dir: rc.dir, seed: rc.seed,
	}
	mf, err := buildModelFixture(rc, rc.sc.ProbeScale, 1, nil, "fixture.iterate")
	if err != nil {
		return nil, err
	}
	in.m0, in.m1, in.docs = mf.base, mf.next[0], mf.c
	if err := runProbes(rc, in, pl); err != nil {
		return nil, err
	}
	finishCore(pl, iterateMs, tokens)
	return pl, nil
}
