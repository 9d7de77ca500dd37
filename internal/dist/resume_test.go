package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// tokenMultiset reads s back through its ShardTo streams and the shared
// shard decoder — the decoder a live worker runs on its Assign — and
// counts every token's (d, w, z, proposals).
func tokenMultiset(t *testing.T, s sampler.Sharded, c *corpus.Corpus, cfg sampler.Config) map[string]int {
	t.Helper()
	ms := map[string]int{}
	stride := cfg.M + 1
	for i := 0; i < s.NumShards(); i++ {
		var b bytes.Buffer
		if err := s.ShardTo(i, &b); err != nil {
			t.Fatal(err)
		}
		st, err := core.DecodeWorkerState(&b, cfg.K, cfg.M, c.NumDocs(), c.V, c.NumTokens())
		if err != nil {
			t.Fatal(err)
		}
		tk := &st.Tokens
		for j := range tk.D {
			ms[fmt.Sprint(tk.D[j], tk.W[j], tk.Data[j*stride:(j+1)*stride])]++
		}
	}
	return ms
}

// requireCountsMatch checks ck == histogram(assignments).
func requireCountsMatch(t *testing.T, s sampler.Sampler, k int) {
	t.Helper()
	hist := make([]int32, k)
	for _, doc := range s.Assignments() {
		for _, z := range doc {
			hist[z]++
		}
	}
	if ck := s.(interface{ GlobalCounts() []int32 }).GlobalCounts(); !reflect.DeepEqual(ck, hist) {
		t.Fatalf("%s: ck %v, histogram of the assignments %v", s.Name(), ck, hist)
	}
}

// TestResumeAcrossFourHops carries one chain across every way WarpLDA
// runs here: -threads 4 (core.Warp) → Distributed p=3 → a live
// coordinator with two workers over loopback TCP → -threads 1. Each hop
// resumes the previous hop's newest checkpoint from one directory. At
// every boundary a read-back before any iteration — the restored
// sampler's shards through the shared decoder — holds the multiset of
// (d, w, z, proposals) the checkpoint's writer held, and the resume
// logs nothing. After every hop, ck equals the histogram of the
// assignments.
func TestResumeAcrossFourHops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-goroutine training run")
	}
	c := e2eCorpus(t)
	dir := t.TempDir()
	fp := train.CorpusFingerprint(c)
	withThreads := func(n int) sampler.Config {
		cfg := e2eConfig()
		cfg.Threads = n
		return cfg
	}
	cfg := withThreads(0)

	// readBack restores the newest checkpoint into s and requires the
	// saved multiset back before s iterates.
	readBack := func(s sampler.Sharded, scfg sampler.Config, want map[string]int) *train.Checkpoint {
		t.Helper()
		ck, err := train.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Verify(s.Name(), fp, scfg); err != nil {
			t.Fatal(err)
		}
		if err := ck.RestoreInto(s); err != nil {
			t.Fatal(err)
		}
		if got := tokenMultiset(t, s, c, scfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s read back %d distinct tokens from the %s checkpoint, want %d (multiset differs)",
				s.Name(), len(got), ck.Sampler, len(want))
		}
		requireCountsMatch(t, s, scfg.K)
		return ck
	}
	// resume runs s from the newest checkpoint to iters, checkpointing
	// into dir, and requires that it logs nothing.
	resume := func(s sampler.Sharded, scfg sampler.Config, ck *train.Checkpoint, iters int) {
		t.Helper()
		var notices []string
		_, err := train.Run(s, c, scfg, train.Options{
			Iters: iters, CheckpointDir: dir, CheckpointEvery: 4, ResumeFrom: ck,
			Logf: func(format string, args ...any) { notices = append(notices, fmt.Sprintf(format, args...)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(notices) != 0 {
			t.Fatalf("resume logged %q, want silence", notices)
		}
		requireCountsMatch(t, s, scfg.K)
	}

	// Hop 1: core.Warp, four threads.
	warp4, err := core.New(c, withThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	resume(warp4, withThreads(4), nil, 4)
	saved := tokenMultiset(t, warp4, c, cfg)

	// Hop 2: Distributed, three workers.
	newDist := func(p int) *cluster.Distributed {
		d, err := cluster.NewDistributed(c, withThreads(p), p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ck := readBack(newDist(3), withThreads(3), saved)
	dist3 := newDist(3)
	resume(dist3, withThreads(3), ck, 8)
	saved = tokenMultiset(t, dist3, c, cfg)

	// Hop 3: the live cluster, two workers. Its boundary read-back is
	// the coordinator's own restore (a two-worker shadow) and what each
	// worker's decoder makes of the shard the shadow assigns it.
	readBack(newDist(2), withThreads(2), saved)
	var notices []string
	var final map[string]int
	co, err := NewCoordinator(CoordinatorConfig{
		Addr: "127.0.0.1:0", Corpus: c, Cfg: cfg, MinWorkers: 2,
		HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 5 * time.Second,
		ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second,
		Logf: func(format string, args ...any) { notices = append(notices, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErr := make([]error, 2)
	for i := range workerErr {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErr[i] = RunWorker(ctx, testWorkerConfig(t, co.Addr(), fmt.Sprintf("w%d", i)))
		}(i)
	}
	opts := schedule(dir, 12, 4)
	opts.Progress = func(ev train.Event) {
		if ev.Checkpoint != "" {
			requireCountsMatch(t, co, cfg.K)
			final = tokenMultiset(t, co, c, cfg)
		}
	}
	_, err = co.Serve(ctx, opts)
	wg.Wait()
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i, err := range workerErr {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !strings.Contains(strings.Join(notices, "\n"), "resume from iteration 8: 3 saved shards across 2 workers") {
		t.Fatalf("coordinator did not resume the distributed checkpoint elastically:\n%s", strings.Join(notices, "\n"))
	}

	// Hop 4: core.Warp, one thread.
	warp1 := func() *core.Warp {
		w, err := core.New(c, withThreads(1))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ck = readBack(warp1(), withThreads(1), final)
	if ck.Iter != 12 || ck.Sampler != "WarpLDA-sharded" {
		t.Fatalf("newest checkpoint is %s at %d, want the live cluster's at 12", ck.Sampler, ck.Iter)
	}
	resume(warp1(), withThreads(1), ck, 16)
}

// TestWarpShardsRestoreIntoEitherSampler restores the dshd shards of a
// 2-thread core.Warp, over a corpus whose documents are not in word
// order, into core.Warp and Distributed, and requires every token back
// with its own saved (d, w, z, proposals). core.Warp writes a worker's
// doc-phase rows in row order, which the decoder must match to the
// corpus's token order however the words fall.
func TestWarpShardsRestoreIntoEitherSampler(t *testing.T) {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{D: 40, V: 60, K: 4, MeanLen: 12, Alpha: 0.1, Beta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSorted(c.Doc(0)) && slices.IsSorted(c.Doc(1)) {
		t.Fatal("corpus documents are in word order; the test needs them not to be")
	}
	cfg := sampler.PaperDefaults(4)
	cfg.M = 2
	cfg.Threads = 2
	src, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		src.Iterate()
	}
	want, streams := tokenMultiset(t, src, c, cfg), make([][]byte, src.NumShards())
	for i := range streams {
		var b bytes.Buffer
		if err := src.ShardTo(i, &b); err != nil {
			t.Fatal(err)
		}
		streams[i] = b.Bytes()
	}
	restore := func(s sampler.Sharded) {
		t.Helper()
		readers := make([]io.Reader, len(streams))
		for i, b := range streams {
			readers[i] = bytes.NewReader(b)
		}
		if err := s.RestoreShards(3, readers); err != nil {
			t.Fatalf("%s: restore of core.Warp shards: %v", s.Name(), err)
		}
		if got := tokenMultiset(t, s, c, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored tokens differ from the saved (d, w, z, proposals)", s.Name())
		}
		requireCountsMatch(t, s, cfg.K)
	}
	cfg.Threads = 3
	w, err := core.New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restore(w)
	d, err := cluster.NewDistributed(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	restore(d)
}
