// Command warplda-train trains an LDA model on a UCI bag-of-words corpus
// with any of the repository's samplers and prints the convergence trace
// and the top words of each topic.
//
// Usage:
//
//	warplda-train -corpus corpus.uci -topics 100 -iters 200 -save model.bin
//	warplda-train -corpus docword.nytimes.txt -vocab vocab.nytimes.txt \
//	    -algo warplda -topics 1000 -m 2 -iters 300 -eval-every 10
//
// Long runs are restartable: with -checkpoint-dir the trainer writes a
// CRC-checksummed, atomically-renamed, iteration-stamped snapshot of
// its complete state every -checkpoint-every iterations (keeping the
// newest -checkpoint-keep of them), and SIGINT/SIGTERM make it finish
// the current iteration, checkpoint, and exit (status 3) instead of
// dying mid-pass. A later invocation with -resume continues the run
// bit-identically — same assignments, same log-likelihood trace — as if
// it had never been interrupted. -budget bounds cumulative sampling
// time the same way.
//
//	warplda-train -corpus c.uci -iters 500 -checkpoint-dir ckpt/
//	^C (or kubectl delete pod, spot preemption, ...)
//	warplda-train -corpus c.uci -iters 500 -checkpoint-dir ckpt/ -resume ckpt/
//
// Every checkpoint is a directory of shard files bound by a CRC-trailed
// manifest (docs/FORMATS.md): each worker of the warplda and
// distributed samplers writes its own shard, any other sampler writes
// one. Resume is elastic — a checkpoint written at one -threads count
// resumes at another; the warplda and distributed samplers repartition
// the state, the others ignore -threads. The warplda sampler runs one
// chain at every -threads, so its resumed run is bit-identical to the
// uninterrupted one whatever the two counts; the distributed sampler's
// chain depends on its worker count, so its resume is bit-identical
// only at an unchanged -threads:
//
//	warplda-train -corpus c.uci -threads 2 -checkpoint-dir ckpt/
//	warplda-train -corpus c.uci -threads 8 -checkpoint-dir ckpt/ -resume ckpt/
//	warplda-train -corpus c.uci -algo distributed -threads 3 -checkpoint-dir ckpt/
//	warplda-train -corpus c.uci -algo distributed -threads 5 -checkpoint-dir ckpt/ -resume ckpt/
//
// Corpora larger than RAM train with -stream: the docword file is
// parsed once in bounded memory (-max-resident-mb) into a checksummed
// .warpcorpus cache (-corpus-cache names the directory; default is next
// to the source), which is then memory-mapped read-only — the token
// array lives in page cache, not heap, and later runs (including
// -resume) reuse the cache without touching the source file. Streaming
// and in-memory runs of the same corpus are bit-identical.
//
//	warplda-train -corpus huge.uci -stream -corpus-cache /fast-ssd/cache -iters 100
//
// With -listen the distributed sampler's workers are warplda-worker
// processes on other machines (the cluster of the paper's Section 5.3),
// trained on the same schedule as an in-process run. This process owns
// the corpus and relays the workers' token blocks; -threads is the
// membership an epoch needs, and -checkpoint-dir is the recovery log: a
// worker's death rewinds the run to the newest checkpoint, a joiner is
// admitted at the next pass, and a restart with the same command line
// resumes the newest checkpoint.
//
//	warplda-train -corpus c.uci -algo distributed -threads 2 -listen :7077 -checkpoint-dir ckpt/
//	warplda-worker -coordinator host:7077   # on each worker machine
//
// A model saved with -save is the snapshot cmd/warplda-serve loads,
// written in the versioned, CRC32-checksummed format (WARPLDA v2) via
// temp-file + atomic rename. -publish <model-dir>/<name> installs the
// snapshot into a warplda-serve model directory twice over: as the
// pinned version <name>@<iter>.bin (servable forever, the rollback
// target) and as the bare <name> via an atomically-swapped "latest"
// pointer, so a running server's hot-reload picks the new model up
// without a restart — the full train→serve pipeline in one flag.
//
// Exit status: 0 on completion, 1 on errors, 2 on usage errors, 3 when
// interrupted or over budget (checkpoint written if -checkpoint-dir was
// given; a second signal aborts immediately with status 130).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"warplda"
	"warplda/internal/corpus"
	"warplda/internal/dist"
)

func main() { os.Exit(run()) }

// trainFlags carries the value of every flag, bound by defineFlags
// (split out so validateFlags and resumeCommand are unit-testable).
type trainFlags struct {
	corpusPath, vocabPath, algo          string
	topics, m, iters, evalEvery, threads int
	seed                                 uint64
	topWords, printTopics                int
	savePath, checkpointDir, resumePath  string
	checkpointEvery, checkpointKeep      int
	budget                               time.Duration
	publish                              string
	publishKeep, deltaMaxChain           int
	publishDelta, stream                 bool
	corpusCache, listen                  string
	maxResidentMB                        int
}

// defineFlags binds every flag of fs to a field of the returned
// trainFlags.
func defineFlags(fs *flag.FlagSet) *trainFlags {
	f := new(trainFlags)
	fs.StringVar(&f.corpusPath, "corpus", "", "UCI bag-of-words file (required)")
	fs.StringVar(&f.vocabPath, "vocab", "", "optional vocabulary file (one word per line)")
	fs.StringVar(&f.algo, "algo", warplda.WarpLDA, "sampler: warplda|cgs|sparselda|aliaslda|flda|lightlda|distributed")
	fs.IntVar(&f.topics, "topics", 100, "number of topics K")
	fs.IntVar(&f.m, "m", 2, "MH steps per token (MH-based samplers)")
	fs.IntVar(&f.iters, "iters", 100, "training iterations (total, including resumed ones)")
	fs.IntVar(&f.evalEvery, "eval-every", 10, "log-likelihood evaluation interval")
	fs.IntVar(&f.threads, "threads", 1, "worker threads/shards (parallel samplers: warplda, distributed); with -listen, the workers an epoch waits for")
	fs.Uint64Var(&f.seed, "seed", 42, "random seed")
	fs.IntVar(&f.topWords, "top-words", 10, "top words to print per topic")
	fs.IntVar(&f.printTopics, "print-topics", 10, "number of topics to print")
	fs.StringVar(&f.savePath, "save", "", "write the trained model snapshot here (for warplda-serve)")
	fs.StringVar(&f.checkpointDir, "checkpoint-dir", "", "write resumable checkpoints into this directory")
	fs.IntVar(&f.checkpointEvery, "checkpoint-every", 10, "checkpoint interval in iterations (<= 0: only at interruption and completion)")
	fs.IntVar(&f.checkpointKeep, "checkpoint-keep", 1, "keep the newest N iteration-stamped checkpoints (older ones are deleted after each successful checkpoint)")
	fs.StringVar(&f.resumePath, "resume", "", "resume from this checkpoint file (or its directory); reuses the checkpoint's configuration — pass the same -algo (warplda and distributed resume each other)")
	fs.StringVar(&f.publish, "publish", "", "after training, atomically install the model as <model-dir>/<name> for a running warplda-serve")
	fs.IntVar(&f.publishKeep, "publish-keep", 0, "keep only the newest N published @version snapshots, never the one latest points at (0 = keep all)")
	fs.BoolVar(&f.publishDelta, "publish-delta", false, "with -publish: publish incrementally during training — a full base snapshot once, then a WARPDLT delta file per -checkpoint-every interval that a watching warplda-serve folds into the live engine")
	fs.IntVar(&f.deltaMaxChain, "delta-max-chain", 16, "with -publish-delta: rebase onto a fresh full snapshot after this many chained deltas")
	fs.DurationVar(&f.budget, "budget", 0, "wall-clock sampling budget (e.g. 2h30m); 0 = none")
	fs.BoolVar(&f.stream, "stream", false, "out-of-core ingestion: build (or reuse) a .warpcorpus cache and memory-map it instead of loading the corpus into RAM")
	fs.StringVar(&f.corpusCache, "corpus-cache", "", "directory for the .warpcorpus cache (with -stream; default: the corpus file's directory)")
	fs.IntVar(&f.maxResidentMB, "max-resident-mb", 0, "cap in MiB on the buffers that build the cache (with -stream; each takes a quarter, at most 1 MiB; 0 = no cap)")
	fs.StringVar(&f.listen, "listen", "", "with -algo distributed and -checkpoint-dir: listen on this address for warplda-worker processes, which then run the workers")
	return f
}

// validateFlags rejects configurations that would previously misbehave
// silently (zero-iteration "runs", zero-topic models, negative MH step
// counts).
func validateFlags(f trainFlags) error {
	if f.corpusPath == "" {
		return fmt.Errorf("-corpus is required")
	}
	if f.iters <= 0 {
		return fmt.Errorf("-iters = %d, want > 0", f.iters)
	}
	if f.topics <= 0 {
		return fmt.Errorf("-topics = %d, want > 0", f.topics)
	}
	if f.m < 0 {
		return fmt.Errorf("-m = %d, want >= 0", f.m)
	}
	if f.threads < 1 {
		return fmt.Errorf("-threads = %d, want >= 1", f.threads)
	}
	if f.budget < 0 {
		return fmt.Errorf("-budget = %v, want >= 0", f.budget)
	}
	if f.maxResidentMB < 0 {
		return fmt.Errorf("-max-resident-mb = %d, want >= 0", f.maxResidentMB)
	}
	if f.checkpointKeep < 1 {
		return fmt.Errorf("-checkpoint-keep = %d, want >= 1", f.checkpointKeep)
	}
	if !f.stream && (f.corpusCache != "" || f.maxResidentMB != 0) {
		return fmt.Errorf("-corpus-cache and -max-resident-mb only apply with -stream")
	}
	if f.publish != "" {
		if _, _, err := warplda.PublishModelPath(f.publish); err != nil {
			return err
		}
	}
	if f.publishKeep < 0 {
		return fmt.Errorf("-publish-keep = %d, want >= 0", f.publishKeep)
	}
	if f.publishKeep > 0 && f.publish == "" {
		return fmt.Errorf("-publish-keep only applies with -publish")
	}
	if f.publishDelta && f.publish == "" {
		return fmt.Errorf("-publish-delta only applies with -publish")
	}
	if f.publishDelta && f.deltaMaxChain < 1 {
		return fmt.Errorf("-delta-max-chain = %d, want >= 1", f.deltaMaxChain)
	}
	if f.listen != "" && (f.algo != warplda.Distributed || f.checkpointDir == "") {
		return fmt.Errorf("-listen only applies with -algo distributed and -checkpoint-dir (the recovery log)")
	}
	known := append(append([]string(nil), warplda.Algorithms...), warplda.Distributed)
	for _, a := range known {
		if f.algo == a {
			return nil
		}
	}
	return fmt.Errorf("-algo = %q, want one of %v", f.algo, known)
}

func run() int {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	if err := validateFlags(*f); err != nil {
		fmt.Fprintf(os.Stderr, "warplda-train: %v\n", err)
		flag.Usage()
		return 2
	}

	var c warplda.CorpusProvider
	if f.stream {
		mc, err := openOrBuildCache(f.corpusPath, f.corpusCache, f.maxResidentMB)
		if err != nil {
			return fatal(err)
		}
		defer mc.Close()
		c = mc
	} else {
		cf, err := os.Open(f.corpusPath)
		if err != nil {
			return fatal(err)
		}
		cm, err := warplda.ReadUCI(cf)
		cf.Close()
		if err != nil {
			return fatal(err)
		}
		c = cm
	}
	var vocab []string
	if f.vocabPath != "" {
		vf, err := os.Open(f.vocabPath)
		if err != nil {
			return fatal(err)
		}
		vocab, err = warplda.ReadVocab(vf)
		vf.Close()
		if err != nil {
			return fatal(err)
		}
		if len(vocab) != c.NumWords() {
			return fatal(fmt.Errorf("vocab has %d words, corpus declares %d", len(vocab), c.NumWords()))
		}
		if cm, ok := c.(*warplda.Corpus); ok {
			cm.Vocab = vocab
		}
	}
	fmt.Printf("corpus: %s\n", warplda.CorpusStats(c))

	cfg := warplda.Defaults(f.topics)
	cfg.M = f.m
	cfg.Seed = f.seed
	cfg.Threads = f.threads

	var resume *warplda.Checkpoint
	if f.resumePath != "" {
		ck, err := warplda.LoadCheckpoint(f.resumePath)
		if err != nil {
			return fatal(err)
		}
		// The checkpoint is authoritative for the run's hyper-parameters.
		// Unset flags inherit its values; a hyper-parameter flag that was
		// explicitly set AND disagrees with the checkpoint is rejected —
		// silently training with different values than the user asked for
		// would be worse than an error. -threads is the exception: worker
		// topology is exactly what elastic resume may change.
		set := map[string]bool{}
		flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		elasticThreads := set["threads"] && f.threads != ck.Cfg.Threads
		for _, conflict := range []struct {
			flag string
			bad  bool
			got  any
			want any
		}{
			{"topics", f.topics != ck.Cfg.K, f.topics, ck.Cfg.K},
			{"m", f.m != ck.Cfg.M, f.m, ck.Cfg.M},
			{"seed", f.seed != ck.Cfg.Seed, f.seed, ck.Cfg.Seed},
		} {
			if set[conflict.flag] && conflict.bad {
				return fatal(fmt.Errorf("-%s %v conflicts with the checkpoint's %v; drop the flag to resume (checkpoints carry their hyper-parameters; only -threads may change)",
					conflict.flag, conflict.got, conflict.want))
			}
		}
		cfg = ck.Cfg
		if elasticThreads {
			cfg.Threads = f.threads
		}
		resume = ck
		fmt.Printf("resuming %s from iteration %d (%s sampling time so far; K=%d M=%d seed=%d threads=%d)\n",
			ck.Sampler, ck.Iter, ck.Elapsed.Round(time.Millisecond),
			cfg.K, cfg.M, cfg.Seed, cfg.Threads)
		if elasticThreads {
			fmt.Fprintf(os.Stderr, "warplda-train: elastic resume: checkpoint was written with -threads %d, run uses %d\n",
				ck.Cfg.Threads, cfg.Threads)
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "warplda-train: "+format+"\n", args...)
	}
	var s warplda.Sampler
	var co *dist.Coordinator
	var err error
	if f.listen == "" {
		s, err = warplda.NewSampler(f.algo, c, cfg)
	} else if co, err = dist.NewCoordinator(dist.CoordinatorConfig{
		Addr: f.listen, Corpus: corpus.Materialize(c), Cfg: cfg, MinWorkers: cfg.Threads, Logf: logf,
	}); err == nil {
		fmt.Printf("listening on %s\n", co.Addr())
		s = co
	}
	if err != nil {
		return fatal(err)
	}
	snapshot := func() *warplda.Model {
		model := warplda.Snapshot(c, s, cfg)
		if model.Vocab == nil && vocab != nil {
			// A mapped corpus carries no vocabulary; attach the one loaded
			// from -vocab so published snapshots and topic listings use words.
			model.Vocab = vocab
		}
		return model
	}

	// Create the checkpoint directory up front (the publisher creates
	// its own): discovering it is missing at the first mid-run
	// checkpoint would abort the run and lose the progress the flag
	// existed to protect.
	if f.checkpointDir != "" {
		if err := os.MkdirAll(f.checkpointDir, 0o755); err != nil {
			return fatal(err)
		}
	}
	// One publisher: every snapshot in full (chain length 0), or with
	// -publish-delta a base, then one WARPDLT delta per -checkpoint-every
	// interval, rebased onto a fresh base every -delta-max-chain links.
	var pub *warplda.DeltaPublisher
	if f.publish != "" {
		chain := 0
		if f.publishDelta {
			chain = f.deltaMaxChain
		}
		if pub, err = warplda.NewDeltaPublisher(f.publish, chain, f.publishKeep); err != nil {
			return fatal(err)
		}
	}
	publish := func(model *warplda.Model, iter int) error {
		r, err := pub.Publish(model, iter)
		if err != nil {
			return fmt.Errorf("publish at iteration %d: %w", iter, err)
		}
		if r.Full {
			fmt.Printf("published base snapshot: iter %d -> %s\n", iter, r.Path)
		} else {
			fmt.Printf("published delta: iter %d -> %s (gen %d, %d cells)\n", iter, r.Path, r.Gen, r.Cells)
		}
		return nil
	}

	// First signal: finish the current iteration, checkpoint, exit
	// cleanly (a live cluster drops the pass in flight instead, and stops
	// at its newest checkpoint). Second signal: abort now.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "warplda-train: %v: finishing current iteration and checkpointing (signal again to abort)\n", sig)
		cancel()
		<-sigs
		os.Exit(130)
	}()

	opts := warplda.TrainOptions{
		Iters:           f.iters,
		EvalEvery:       f.evalEvery,
		CheckpointDir:   f.checkpointDir,
		CheckpointEvery: f.checkpointEvery,
		CheckpointKeep:  f.checkpointKeep,
		Budget:          f.budget,
		Stop:            ctx.Done(),
		ResumeFrom:      resume,
		Logf:            logf,
		Progress: func(ev warplda.TrainEvent) {
			if p := ev.Eval; p != nil {
				fmt.Printf("iter %4d  logLik %.6e  time %8.2fs  %6.2f Mtoken/s (interval %6.2f)  eval %7.1fms%s\n",
					p.Iter, p.LogLik, p.Elapsed.Seconds(), p.TokensSec/1e6, p.IntervalTokensSec/1e6,
					float64(ev.EvalTime.Microseconds())/1e3, acceptRates(s))
			}
			if ev.Checkpoint != "" {
				fmt.Printf("checkpoint: iter %d -> %s\n", ev.Iter, ev.Checkpoint)
			}
			// Progress runs between iterations, so the sampler state is
			// quiescent and snapshotting here is safe. A failed interval
			// publish never kills the run: the next one retries.
			if f.publishDelta && f.checkpointEvery > 0 && ev.Iter%f.checkpointEvery == 0 && ev.Iter < ev.Iters {
				if err := publish(snapshot(), ev.Iter); err != nil {
					logf("%v", err)
				}
			}
		},
	}
	var res warplda.TrainResult
	if co != nil {
		res, err = co.Serve(ctx, opts)
	} else {
		res, err = warplda.TrainCheckpointed(s, c, cfg, opts)
	}
	signal.Stop(sigs)
	if err != nil {
		return fatal(err)
	}

	if !res.Completed {
		reason := "interrupted"
		if res.OverBudget {
			reason = fmt.Sprintf("budget of %v exhausted", f.budget)
		}
		fmt.Fprintf(os.Stderr, "warplda-train: %s at iteration %d/%d\n", reason, res.Iter, f.iters)
		if res.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "warplda-train: resume with: %s\n", resumeCommand(flag.CommandLine, res.OverBudget, res.CheckpointPath))
		} else {
			fmt.Fprintln(os.Stderr, "warplda-train: no checkpoint written (set -checkpoint-dir); progress lost")
		}
		return 3
	}

	model := snapshot()
	if f.savePath != "" {
		n, err := model.WriteFile(f.savePath)
		if err != nil {
			return fatal(err)
		}
		fmt.Printf("model saved to %s (%d bytes, checksummed snapshot v2)\n", f.savePath, n)
	}
	// The final state goes out in full, or in delta mode as one more
	// chain link (a rebase when the chain is full) so a watching server
	// folds it instead of paying a full reload; interval publishes stop
	// short of the last iteration. Unlike an interval publish, a failed
	// final publish fails the run.
	if pub != nil {
		if err := publish(model, res.Iter); err != nil {
			return fatal(err)
		}
	}
	nTop := f.printTopics
	if nTop > cfg.K {
		nTop = cfg.K
	}
	for k := 0; k < nTop; k++ {
		fmt.Printf("topic %3d:", k)
		for _, w := range model.TopWords(k, f.topWords) {
			fmt.Printf(" %s", w)
		}
		fmt.Println()
	}
	return 0
}

// resumeCommand is the invocation that continues an interrupted run
// from its checkpoint ckpt: every flag of fs whose value differs from
// its default, as given, so the resumed run writes the same outputs on
// the same schedule (the hyper-parameters repeated agree with the
// checkpoint). -budget is left out after a budget stop: sampling time
// is cumulative across resumes, so the same budget would halt at once.
func resumeCommand(fs *flag.FlagSet, overBudget bool, ckpt string) string {
	args := []string{"warplda-train"}
	fs.VisitAll(func(fl *flag.Flag) {
		v := fl.Value.String()
		switch {
		case v == fl.DefValue, fl.Name == "resume", fl.Name == "budget" && overBudget:
		case isBool(fl.Value):
			args = append(args, "-"+fl.Name)
		default:
			args = append(args, "-"+fl.Name, v)
		}
	})
	return strings.Join(append(args, "-resume", ckpt), " ")
}

func isBool(v flag.Value) bool {
	b, ok := v.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
}

// sourceStamp is the source-file identity recorded beside a cache
// (<cache>.src) when it is built: reuse requires the current source to
// match it exactly. Size+mtime catches regeneration in either time
// direction (touch, cp -p restoring an older file, in-place rewrite) —
// the same class of staleness the serving registry guards with
// inode-aware change detection.
func sourceStamp(st os.FileInfo) string {
	return fmt.Sprintf("%d %d\n", st.Size(), st.ModTime().UnixNano())
}

// acceptRates renders the MH acceptance rates of the sampler's last
// pass for the progress line, or nothing for a sampler that does not
// count them. A rate collapsing towards zero is the classic silent
// WarpLDA failure: the chains stop moving while throughput looks fine.
func acceptRates(s warplda.Sampler) string {
	ps, ok := s.(interface{ PassStats() warplda.PassStats })
	if !ok {
		return ""
	}
	word, doc := ps.PassStats().AcceptRates()
	return fmt.Sprintf("  accept word %.3f doc %.3f", word, doc)
}

// openOrBuildCache returns the mapped corpus for corpusPath's
// .warpcorpus cache, building the cache from the source file first when
// no valid one exists. A cache that fails to open (missing, torn,
// corrupt, stale format) or whose recorded source identity no longer
// matches the docword file is rebuilt rather than trusted —
// regenerating the source must never leave training silently running
// on the old corpus under the same name.
func openOrBuildCache(corpusPath, cacheDir string, maxResMB int) (*warplda.MappedCorpus, error) {
	cachePath := warplda.CorpusCachePath(corpusPath, cacheDir)
	srcSt, err := os.Stat(corpusPath)
	if err != nil {
		return nil, err
	}
	stampPath := cachePath + ".src"
	if stamp, err := os.ReadFile(stampPath); err != nil || string(stamp) != sourceStamp(srcSt) {
		// No stamp (pre-stamp cache, or a crash between cache rename and
		// stamp write) is treated as stale, not trusted: the cache cannot
		// prove it matches the named source, so it is rebuilt once and
		// stamped. Quiet when the cache itself does not exist yet.
		if _, cerr := os.Stat(cachePath); cerr == nil {
			fmt.Fprintf(os.Stderr, "warplda-train: cannot confirm %s still matches its cache; rebuilding\n", corpusPath)
		}
	} else if mc, err := warplda.OpenMappedCorpus(cachePath); err == nil {
		fmt.Printf("corpus cache: reusing %s (fingerprint %08x)\n", cachePath, mc.CorpusFingerprint())
		return mc, nil
	} else if !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "warplda-train: rebuilding corpus cache: %v\n", err)
	}
	if cacheDir != "" {
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(corpusPath)
	if err != nil {
		return nil, err
	}
	info, err := warplda.BuildCorpusCache(f, cachePath, warplda.CorpusStreamOptions{
		MaxResidentBytes: int64(maxResMB) << 20,
	})
	f.Close()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(stampPath, []byte(sourceStamp(srcSt)), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("corpus cache: built %s (%s, fingerprint %08x)\n", cachePath, info.Stats(), info.Fingerprint)
	return warplda.OpenMappedCorpus(cachePath)
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "warplda-train: %v\n", err)
	return 1
}
