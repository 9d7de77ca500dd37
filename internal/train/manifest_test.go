package train_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warplda/internal/baselines"
	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

func newDist(t *testing.T, c *corpus.Corpus, cfg sampler.Config) *cluster.Distributed {
	t.Helper()
	p := cfg.Threads
	if p < 1 {
		p = 1
	}
	d, err := cluster.NewDistributed(c, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardedCheckpointElasticResume is the acceptance scenario: a
// distributed run checkpointed mid-training resumes under a smaller,
// larger, or identical worker count and reaches comparable quality.
func TestShardedCheckpointElasticResume(t *testing.T) {
	c := testCorpus(40)
	for _, tc := range []struct{ oldP, newP int }{
		{1, 3}, {3, 2}, {3, 3}, {3, 4},
	} {
		t.Run(fmt.Sprintf("p%d_to_p%d", tc.oldP, tc.newP), func(t *testing.T) {
			cfg := testCfg(6)
			cfg.Threads = tc.oldP
			// The checkpoint lands mid-burn-in; the quality comparison runs
			// at the converged plateau, where independent chains agree.
			const n, total = 4, 30

			full, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{Iters: total, EvalEvery: 4})
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			halfRes, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{
				Iters: n, EvalEvery: 4, CheckpointDir: dir, CheckpointEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			ck, err := train.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.ShardFiles) != tc.oldP {
				t.Fatalf("%d shard files, want %d", len(ck.ShardFiles), tc.oldP)
			}
			if ck.Iter != n {
				t.Fatalf("checkpoint at iteration %d, want %d", ck.Iter, n)
			}
			if halfRes.CheckpointPath != ck.Dir {
				t.Fatalf("result path %q, loaded dir %q", halfRes.CheckpointPath, ck.Dir)
			}

			cfg2 := cfg
			cfg2.Threads = tc.newP
			var logs []string
			resRes, err := train.Run(newDist(t, c, cfg2), c, cfg2, train.Options{
				Iters: total, EvalEvery: 4, ResumeFrom: ck,
				Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !resRes.Completed || resRes.Iter != total {
				t.Fatalf("elastic resume: completed=%v iter=%d", resRes.Completed, resRes.Iter)
			}
			if len(logs) != 0 {
				t.Fatalf("resume logged %q, want silence", logs)
			}
			// Comparable quality: the elastic-resumed run's final
			// log-likelihood tracks the uninterrupted run's. Converged
			// independent chains on this small corpus still spread a few
			// percent, hence the loose band; the strict statements (exact
			// restore, invariants, rejection of damage) live in
			// internal/cluster's tests.
			got, want := resRes.Run.Final().LogLik, full.Run.Final().LogLik
			if math.Abs(got-want) > 0.05*math.Abs(want) {
				t.Fatalf("elastic-resumed final LL %.1f differs from uninterrupted %.1f by more than 5%%", got, want)
			}
		})
	}
}

// A distributed checkpoint resumed into another algorithm's sampler
// must fail cleanly. core.Warp is not one: it shares the shard stream
// (TestResumeSamplerGuard), so the other algorithm here is a baseline.
func TestShardedCheckpointWrongSampler(t *testing.T) {
	c := testCorpus(41)
	cfg := testCfg(6)
	cfg.Threads = 2
	dir := t.TempDir()
	if _, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{Iters: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ck, err := train.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := baselines.NewCGS(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(g, c, cfg, train.Options{Iters: 4, ResumeFrom: ck}); err == nil {
		t.Fatal("sharded checkpoint accepted by a non-sharded sampler")
	}
}

// TestShardedCheckpointCorruption: every class of on-disk damage to a
// sharded checkpoint — manifest or shard — is rejected before any
// state reaches the sampler.
func TestShardedCheckpointCorruption(t *testing.T) {
	c := testCorpus(42)
	cfg := testCfg(6)
	cfg.Threads = 2

	// One run, two retained checkpoints (iterations 2 and 4): the older
	// one donates same-sized, self-consistent "foreign" shard files.
	dir := t.TempDir()
	if _, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{
		Iters: 4, CheckpointEvery: 2, CheckpointDir: dir, CheckpointKeep: 2,
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := train.ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retained %+v, want two checkpoints", entries)
	}
	oldDir, newDir := entries[0].Path, entries[1].Path

	resume := func(t *testing.T, ckDir string) error {
		ck, err := train.ReadManifest(ckDir)
		if err != nil {
			return err
		}
		_, err = train.Run(newDist(t, c, cfg), c, cfg, train.Options{Iters: 8, ResumeFrom: ck})
		return err
	}
	// Pristine baseline: the newest checkpoint must resume.
	if err := resume(t, newDir); err != nil {
		t.Fatalf("pristine sharded checkpoint rejected: %v", err)
	}

	copyInto := func(t *testing.T, ckDir string) string {
		t.Helper()
		dst := t.TempDir()
		des, err := os.ReadDir(ckDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			b, err := os.ReadFile(filepath.Join(ckDir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	mutate := func(t *testing.T, path string, f func([]byte) []byte) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("manifest CRC flip", func(t *testing.T) {
		d := copyInto(t, newDir)
		mutate(t, filepath.Join(d, train.ManifestFileName), func(b []byte) []byte {
			b[len(b)/2] ^= 0x20
			return b
		})
		if err := resume(t, d); err == nil {
			t.Fatal("corrupt manifest accepted")
		}
	})
	t.Run("manifest bad magic", func(t *testing.T) {
		d := copyInto(t, newDir)
		mutate(t, filepath.Join(d, train.ManifestFileName), func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		})
		if err := resume(t, d); err == nil {
			t.Fatal("bad manifest magic accepted")
		}
	})
	t.Run("manifest truncated", func(t *testing.T) {
		d := copyInto(t, newDir)
		mutate(t, filepath.Join(d, train.ManifestFileName), func(b []byte) []byte { return b[:len(b)-6] })
		if err := resume(t, d); err == nil {
			t.Fatal("truncated manifest accepted")
		}
	})
	t.Run("missing shard", func(t *testing.T) {
		d := copyInto(t, newDir)
		if err := os.Remove(filepath.Join(d, "shard-001.ckpt")); err != nil {
			t.Fatal(err)
		}
		if err := resume(t, d); err == nil {
			t.Fatal("missing shard accepted")
		}
	})
	t.Run("truncated shard", func(t *testing.T) {
		d := copyInto(t, newDir)
		mutate(t, filepath.Join(d, "shard-000.ckpt"), func(b []byte) []byte { return b[:len(b)-10] })
		if err := resume(t, d); err == nil {
			t.Fatal("truncated shard accepted")
		}
	})
	t.Run("shard bit flip", func(t *testing.T) {
		d := copyInto(t, newDir)
		mutate(t, filepath.Join(d, "shard-001.ckpt"), func(b []byte) []byte {
			b[len(b)/2] ^= 0x01
			return b
		})
		if err := resume(t, d); err == nil {
			t.Fatal("bit-flipped shard accepted")
		}
	})
	t.Run("foreign shard file", func(t *testing.T) {
		// A shard from the SAME run's older checkpoint: identical size,
		// valid magic, self-consistent CRC trailer — only the manifest's
		// recorded CRC (and the embedded iteration) can unmask it.
		d := copyInto(t, newDir)
		b, err := os.ReadFile(filepath.Join(oldDir, "shard-000.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(d, "shard-000.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != st.Size() {
			t.Skipf("shard sizes differ (%d vs %d); size check covers this case", len(b), st.Size())
		}
		if err := os.WriteFile(filepath.Join(d, "shard-000.ckpt"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		err = resume(t, d)
		if err == nil {
			t.Fatal("foreign shard accepted")
		}
		if !strings.Contains(err.Error(), "foreign") {
			t.Fatalf("foreign shard rejected with %v, want a foreign-shard diagnosis", err)
		}
	})
	t.Run("manifest escaping shard path", func(t *testing.T) {
		// Defense in depth: ReadManifest must refuse shard names that
		// point outside the checkpoint directory. Build such a manifest
		// by loading a good one and rewriting the table.
		ck, err := train.ReadManifest(newDir)
		if err != nil {
			t.Fatal(err)
		}
		ck.ShardFiles[0] = filepath.Join("..", "escape.ckpt")
		d := t.TempDir()
		sub := filepath.Join(d, "checkpoint-00000004")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ck.WriteManifestFile(filepath.Join(sub, train.ManifestFileName)); err != nil {
			t.Fatal(err)
		}
		if _, err := train.ReadManifest(sub); err == nil {
			t.Fatal("manifest with path-escaping shard name accepted")
		}
	})
}

// TestCheckpointRotation: keep-last-N retention holds for one-shard
// and multi-shard checkpoints, including across an interrupt, and torn
// directories are swept.
func TestCheckpointRotation(t *testing.T) {
	c := testCorpus(43)

	t.Run("single file", func(t *testing.T) {
		cfg := testCfg(6)
		dir := t.TempDir()
		if _, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
			Iters: 5, CheckpointEvery: 1, CheckpointDir: dir, CheckpointKeep: 2,
		}); err != nil {
			t.Fatal(err)
		}
		entries, err := train.ListCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 || entries[0].Iter != 4 || entries[1].Iter != 5 {
			t.Fatalf("retained %+v, want iterations 4 and 5", entries)
		}
	})

	t.Run("sharded with torn dir sweep", func(t *testing.T) {
		cfg := testCfg(6)
		cfg.Threads = 2
		dir := t.TempDir()
		// A torn checkpoint (no manifest) from a "previous crash".
		if err := os.MkdirAll(filepath.Join(dir, "checkpoint-00000001"), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{
			Iters: 4, CheckpointEvery: 1, CheckpointDir: dir, CheckpointKeep: 2,
		}); err != nil {
			t.Fatal(err)
		}
		entries, err := train.ListCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 || entries[0].Iter != 3 || entries[1].Iter != 4 {
			t.Fatalf("retained %+v, want sharded checkpoints 3 and 4", entries)
		}
		if _, err := os.Stat(filepath.Join(dir, "checkpoint-00000001")); !os.IsNotExist(err) {
			t.Fatal("torn checkpoint directory not swept")
		}
	})

	t.Run("interrupt keeps the newest", func(t *testing.T) {
		cfg := testCfg(6)
		dir := t.TempDir()
		stop := make(chan struct{})
		res, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
			Iters: 10, CheckpointEvery: 1, CheckpointDir: dir, CheckpointKeep: 1,
			Stop: stop,
			Progress: func(ev train.Event) {
				if ev.Iter == 3 {
					close(stop)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted {
			t.Fatal("not interrupted")
		}
		entries, err := train.ListCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Iter != res.Iter {
			t.Fatalf("retained %+v after interrupt at %d, want exactly that iteration", entries, res.Iter)
		}
		// And the retained checkpoint resumes.
		ck, err := train.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{Iters: 10, ResumeFrom: ck}); err != nil {
			t.Fatal(err)
		}
	})
}

// A resume interrupted before its first new iteration re-checkpoints
// at the SAME iteration, rewriting an existing checkpoint directory.
// The rewrite must go through the torn-dir protocol (manifest
// retracted first, rewritten last) and leave a loadable checkpoint.
func TestShardedCheckpointRewriteSameIteration(t *testing.T) {
	c := testCorpus(45)
	cfg := testCfg(6)
	cfg.Threads = 2
	dir := t.TempDir()
	if _, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{Iters: 3, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ck, err := train.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop) // stop already pending: no new iteration runs
	res, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{
		Iters: 8, CheckpointDir: dir, ResumeFrom: ck, Stop: stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Iter != ck.Iter {
		t.Fatalf("interrupted=%v iter=%d, want immediate stop at %d", res.Interrupted, res.Iter, ck.Iter)
	}
	ck2, err := train.Load(dir)
	if err != nil {
		t.Fatalf("rewritten checkpoint unreadable: %v", err)
	}
	if ck2.Iter != ck.Iter {
		t.Fatalf("rewritten checkpoint at iteration %d, want %d", ck2.Iter, ck.Iter)
	}
	if _, err := train.Run(newDist(t, c, cfg), c, cfg, train.Options{Iters: 6, ResumeFrom: ck2}); err != nil {
		t.Fatalf("rewritten checkpoint does not resume: %v", err)
	}
}
