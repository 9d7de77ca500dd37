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
// The warplda and distributed samplers checkpoint *sharded*: each
// worker writes its own shard file, bound by a CRC-trailed manifest
// (docs/FORMATS.md), and resume is elastic — a checkpoint written at
// one -threads count resumes at another, repartitioning the state and
// deterministically reseeding the worker RNG streams (bit-identical
// when the count matches, statistically equivalent and explicitly
// logged when not):
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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"warplda"
)

func main() { os.Exit(run()) }

// trainFlags carries the flag values validateFlags checks (split out so
// the validation is unit-testable).
type trainFlags struct {
	corpusPath     string
	algo           string
	topics         int
	m              int
	iters          int
	threads        int
	budget         time.Duration
	publish        string
	publishKeep    int
	publishDelta   bool
	deltaMaxChain  int
	stream         bool
	corpusCache    string
	maxResidentMB  int
	checkpointKeep int
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
	known := append(append([]string(nil), warplda.Algorithms...), warplda.Distributed)
	for _, a := range known {
		if f.algo == a {
			return nil
		}
	}
	return fmt.Errorf("-algo = %q, want one of %v", f.algo, known)
}

func run() int {
	var (
		corpusPath = flag.String("corpus", "", "UCI bag-of-words file (required)")
		vocabPath  = flag.String("vocab", "", "optional vocabulary file (one word per line)")
		algo       = flag.String("algo", warplda.WarpLDA, "sampler: warplda|cgs|sparselda|aliaslda|flda|lightlda|distributed")
		topics     = flag.Int("topics", 100, "number of topics K")
		m          = flag.Int("m", 2, "MH steps per token (MH-based samplers)")
		iters      = flag.Int("iters", 100, "training iterations (total, including resumed ones)")
		evalEvery  = flag.Int("eval-every", 10, "log-likelihood evaluation interval")
		threads    = flag.Int("threads", 1, "worker threads/shards (parallel samplers: warplda, distributed)")
		seed       = flag.Uint64("seed", 42, "random seed")
		topWords   = flag.Int("top-words", 10, "top words to print per topic")
		maxTopics  = flag.Int("print-topics", 10, "number of topics to print")
		savePath   = flag.String("save", "", "write the trained model snapshot here (for warplda-serve)")
		ckptDir    = flag.String("checkpoint-dir", "", "write resumable checkpoints into this directory")
		ckptEvery  = flag.Int("checkpoint-every", 10, "checkpoint interval in iterations (<= 0: only at interruption and completion)")
		ckptKeep   = flag.Int("checkpoint-keep", 1, "keep the newest N iteration-stamped checkpoints (older ones are deleted after each successful checkpoint)")
		resumePath = flag.String("resume", "", "resume from this checkpoint file (or its directory); reuses the checkpoint's configuration — pass the same -algo")
		publish    = flag.String("publish", "", "after training, atomically install the model as <model-dir>/<name> for a running warplda-serve")
		pubKeep    = flag.Int("publish-keep", 0, "keep only the newest N published @version snapshots, never the one latest points at (0 = keep all)")
		pubDelta   = flag.Bool("publish-delta", false, "with -publish: publish incrementally during training — a full base snapshot once, then a WARPDLT delta file per -checkpoint-every interval that a watching warplda-serve folds into the live engine")
		deltaChain = flag.Int("delta-max-chain", 16, "with -publish-delta: rebase onto a fresh full snapshot after this many chained deltas")
		budget     = flag.Duration("budget", 0, "wall-clock sampling budget (e.g. 2h30m); 0 = none")
		stream     = flag.Bool("stream", false, "out-of-core ingestion: build (or reuse) a .warpcorpus cache and memory-map it instead of loading the corpus into RAM")
		cacheDir   = flag.String("corpus-cache", "", "directory for the .warpcorpus cache (with -stream; default: the corpus file's directory)")
		maxResMB   = flag.Int("max-resident-mb", 0, "ingestion buffer budget in MiB while building the cache (with -stream; 0 = 64)")
	)
	flag.Parse()

	if err := validateFlags(trainFlags{
		corpusPath: *corpusPath, algo: *algo, topics: *topics, m: *m,
		iters: *iters, threads: *threads, budget: *budget, publish: *publish,
		publishKeep: *pubKeep, publishDelta: *pubDelta, deltaMaxChain: *deltaChain,
		stream: *stream, corpusCache: *cacheDir, maxResidentMB: *maxResMB,
		checkpointKeep: *ckptKeep,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "warplda-train: %v\n", err)
		flag.Usage()
		return 2
	}

	var c warplda.CorpusProvider
	if *stream {
		mc, err := openOrBuildCache(*corpusPath, *cacheDir, *maxResMB)
		if err != nil {
			return fatal(err)
		}
		defer mc.Close()
		c = mc
	} else {
		f, err := os.Open(*corpusPath)
		if err != nil {
			return fatal(err)
		}
		cm, err := warplda.ReadUCI(f)
		f.Close()
		if err != nil {
			return fatal(err)
		}
		c = cm
	}
	var vocab []string
	if *vocabPath != "" {
		vf, err := os.Open(*vocabPath)
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

	cfg := warplda.Defaults(*topics)
	cfg.M = *m
	cfg.Seed = *seed
	cfg.Threads = *threads

	var resume *warplda.Checkpoint
	if *resumePath != "" {
		ck, err := warplda.LoadCheckpoint(*resumePath)
		if err != nil {
			return fatal(err)
		}
		// The checkpoint is authoritative for the run's hyper-parameters.
		// Unset flags inherit its values; a hyper-parameter flag that was
		// explicitly set AND disagrees with the checkpoint is rejected —
		// silently training with different values than the user asked for
		// would be worse than an error. The one sanctioned exception is
		// -threads against a *sharded* checkpoint: worker topology is
		// exactly what elastic resume may change.
		set := map[string]bool{}
		flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		elasticThreads := set["threads"] && *threads != ck.Cfg.Threads && ck.IsSharded()
		for _, conflict := range []struct {
			flag string
			bad  bool
			got  any
			want any
		}{
			{"topics", *topics != ck.Cfg.K, *topics, ck.Cfg.K},
			{"m", *m != ck.Cfg.M, *m, ck.Cfg.M},
			{"seed", *seed != ck.Cfg.Seed, *seed, ck.Cfg.Seed},
			{"threads", *threads != ck.Cfg.Threads && !elasticThreads, *threads, ck.Cfg.Threads},
		} {
			if set[conflict.flag] && conflict.bad {
				return fatal(fmt.Errorf("-%s %v conflicts with the checkpoint's %v; drop the flag to resume (checkpoints carry their hyper-parameters; -threads may change only against sharded checkpoints)",
					conflict.flag, conflict.got, conflict.want))
			}
		}
		cfg = ck.Cfg
		if elasticThreads {
			cfg.Threads = *threads
		}
		resume = ck
		fmt.Printf("resuming %s from iteration %d (%s sampling time so far; K=%d M=%d seed=%d threads=%d)\n",
			ck.Sampler, ck.Iter, ck.Elapsed.Round(time.Millisecond),
			cfg.K, cfg.M, cfg.Seed, cfg.Threads)
		if elasticThreads {
			fmt.Fprintf(os.Stderr, "warplda-train: elastic resume: checkpoint has %d workers, run uses %d; state will be rebalanced\n",
				ck.Cfg.Threads, cfg.Threads)
		}
	}

	s, err := warplda.NewSampler(*algo, c, cfg)
	if err != nil {
		return fatal(err)
	}

	// Create the checkpoint directory up front: discovering it is
	// missing at the first mid-run checkpoint would abort the run and
	// lose the progress the flag existed to protect. Same for the
	// publish target's directory — failing after hours of training
	// because the model dir was never created would waste the run.
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fatal(err)
		}
	}
	if *publish != "" {
		path, _, err := warplda.PublishModelPath(*publish)
		if err != nil {
			return fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fatal(err)
		}
	}

	// First signal: finish the current iteration, checkpoint, exit
	// cleanly. Second signal: abort now.
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "warplda-train: %v: finishing current iteration and checkpointing (signal again to abort)\n", sig)
		close(stop)
		<-sigs
		os.Exit(130)
	}()

	// Incremental publishing: a base snapshot on the first interval,
	// then one WARPDLT delta per -checkpoint-every interval, rebased
	// onto a fresh base every -delta-max-chain links. A failed interval
	// publish is reported but never kills the training run — the next
	// interval (or the final publish) retries.
	var deltaPub *warplda.DeltaPublisher
	lastPublished := -1
	if *pubDelta {
		var err error
		if deltaPub, err = warplda.NewDeltaPublisher(*publish, *deltaChain, *pubKeep); err != nil {
			return fatal(err)
		}
	}
	publishIncremental := func(iter int) {
		model := warplda.Snapshot(c, s, cfg)
		if model.Vocab == nil && vocab != nil {
			model.Vocab = vocab
		}
		r, err := deltaPub.Publish(model, iter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warplda-train: publish at iteration %d: %v\n", iter, err)
			return
		}
		lastPublished = iter
		if r.Full {
			fmt.Printf("published base snapshot: iter %d -> %s\n", iter, r.Path)
		} else {
			fmt.Printf("published delta: iter %d -> %s (gen %d, %d cells)\n", iter, r.Path, r.Gen, r.Cells)
		}
	}

	res, err := warplda.TrainCheckpointed(s, c, cfg, warplda.TrainOptions{
		Iters:           *iters,
		EvalEvery:       *evalEvery,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		CheckpointKeep:  *ckptKeep,
		Budget:          *budget,
		Stop:            stop,
		ResumeFrom:      resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "warplda-train: "+format+"\n", args...)
		},
		Progress: func(ev warplda.TrainEvent) {
			if p := ev.Eval; p != nil {
				fmt.Printf("iter %4d  logLik %.6e  time %8.2fs  %6.2f Mtoken/s (interval %6.2f)%s\n",
					p.Iter, p.LogLik, p.Elapsed.Seconds(), p.TokensSec/1e6, p.IntervalTokensSec/1e6, acceptRates(s))
			}
			if ev.Checkpoint != "" {
				fmt.Printf("checkpoint: iter %d -> %s\n", ev.Iter, ev.Checkpoint)
			}
			// Progress runs between iterations, so the sampler state is
			// quiescent and snapshotting here is safe.
			if deltaPub != nil && *ckptEvery > 0 && ev.Iter%*ckptEvery == 0 && ev.Iter < ev.Iters {
				publishIncremental(ev.Iter)
			}
		},
	})
	signal.Stop(sigs)
	if err != nil {
		return fatal(err)
	}

	if !res.Completed {
		reason := "interrupted"
		if res.OverBudget {
			reason = fmt.Sprintf("budget of %v exhausted", *budget)
		}
		fmt.Fprintf(os.Stderr, "warplda-train: %s at iteration %d/%d\n", reason, res.Iter, *iters)
		if res.CheckpointPath != "" {
			// Reconstruct the full invocation so copy-pasting it resumes the
			// run exactly: same outputs, same eval schedule, checkpointing
			// still on. Hyper-parameters travel inside the checkpoint.
			cmd := fmt.Sprintf("warplda-train -corpus %s -algo %s -iters %d -eval-every %d -checkpoint-dir %s -checkpoint-every %d",
				*corpusPath, *algo, *iters, *evalEvery, *ckptDir, *ckptEvery)
			if *ckptKeep != 1 {
				cmd += fmt.Sprintf(" -checkpoint-keep %d", *ckptKeep)
			}
			if *vocabPath != "" {
				cmd += " -vocab " + *vocabPath
			}
			if *stream {
				// Resuming with -stream reuses the cache: the checkpoint's
				// fingerprint is validated against the cache header, no
				// source re-read.
				cmd += " -stream"
				if *cacheDir != "" {
					cmd += " -corpus-cache " + *cacheDir
				}
				if *maxResMB != 0 {
					cmd += fmt.Sprintf(" -max-resident-mb %d", *maxResMB)
				}
			}
			// Elapsed sampling time is cumulative across resumes, so after a
			// budget stop the same -budget would halt again immediately —
			// suggest it only for signal interruptions.
			if *budget > 0 && !res.OverBudget {
				cmd += " -budget " + budget.String()
			}
			if *savePath != "" {
				cmd += " -save " + *savePath
			}
			if *publish != "" {
				cmd += " -publish " + *publish
			}
			if *pubDelta {
				cmd += fmt.Sprintf(" -publish-delta -delta-max-chain %d", *deltaChain)
			}
			fmt.Fprintf(os.Stderr, "warplda-train: resume with: %s -resume %s\n", cmd, res.CheckpointPath)
		} else {
			fmt.Fprintln(os.Stderr, "warplda-train: no checkpoint written (set -checkpoint-dir); progress lost")
		}
		return 3
	}

	model := warplda.Snapshot(c, s, cfg)
	if model.Vocab == nil && vocab != nil {
		// A mapped corpus carries no vocabulary; attach the one loaded
		// from -vocab so saved snapshots and topic listings use words.
		model.Vocab = vocab
	}
	if *savePath != "" {
		n, err := model.WriteFile(*savePath)
		if err != nil {
			return fatal(err)
		}
		fmt.Printf("model saved to %s (%d bytes, checksummed snapshot v2)\n", *savePath, n)
	}
	if deltaPub != nil {
		// Delta mode owns the publish target: the final state goes out
		// as one more chain link (or a rebase when the chain is full) so
		// a watching server folds it instead of paying a full reload.
		if res.Iter != lastPublished {
			publishIncremental(res.Iter)
		}
	} else if *publish != "" {
		// The pinned version first (servable forever as <name>@<iter>),
		// then the atomically-swapped "latest" pointer the bare <name>
		// follows — the order matters: a crash between the two leaves the
		// registry serving the previous version, never a missing target.
		vPath, vName, err := warplda.PublishModelVersionPath(*publish, res.Iter)
		if err != nil {
			return fatal(err)
		}
		n, err := model.WriteFile(vPath)
		if err != nil {
			return fatal(err)
		}
		latest, err := warplda.PublishModelLatest(*publish, res.Iter)
		if err != nil {
			return fatal(err)
		}
		_, name, err := warplda.PublishModelPath(*publish)
		if err != nil {
			return fatal(err)
		}
		fmt.Printf("model published as %q (%d bytes) and as latest %q -> %s (a watching warplda-serve hot-reloads it; roll back by re-pointing %s at an older @version)\n",
			vName, n, name, vPath, latest)
		if *pubKeep > 0 {
			pruned, err := warplda.PruneModelVersions(*publish, *pubKeep)
			if err != nil {
				return fatal(err)
			}
			for _, p := range pruned {
				fmt.Printf("pruned old version %s\n", p)
			}
		}
	}
	nTop := *maxTopics
	if nTop > cfg.K {
		nTop = cfg.K
	}
	for k := 0; k < nTop; k++ {
		fmt.Printf("topic %3d:", k)
		for _, w := range model.TopWords(k, *topWords) {
			fmt.Printf(" %s", w)
		}
		fmt.Println()
	}
	return 0
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
