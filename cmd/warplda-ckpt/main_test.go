package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"warplda"
	"warplda/internal/baselines"
	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// buildCheckpoints produces a realistic retention directory: two
// checkpoints (iterations 2 and 4) of a 2-worker distributed run, and
// one at iteration 6 written after an elastic resume onto 3 workers.
func buildCheckpoints(t *testing.T) (string, sampler.Config) {
	t.Helper()
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 60, V: 80, K: 4, MeanLen: 20, Alpha: 0.1, Beta: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampler.PaperDefaults(4)
	cfg.M = 2
	cfg.Threads = 2

	dir := t.TempDir()
	d, err := cluster.NewDistributed(c, cfg, cfg.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(d, c, cfg, train.Options{
		Iters: 4, EvalEvery: 2, CheckpointDir: dir, CheckpointEvery: 2, CheckpointKeep: 2,
	}); err != nil {
		t.Fatal(err)
	}

	ck, err := train.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := cfg
	cfg3.Threads = 3
	d3, err := cluster.NewDistributed(c, cfg3, cfg3.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(d3, c, cfg3, train.Options{
		Iters: 6, EvalEvery: 2, CheckpointDir: dir, CheckpointKeep: 3, ResumeFrom: ck,
	}); err != nil {
		t.Fatal(err)
	}
	return dir, cfg
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed alongside fn's error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	fnErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), fnErr
}

// TestCkptCLI drives every subcommand against one retention directory.
// The corruption subtest mutates the directory, so it runs last.
func TestCkptCLI(t *testing.T) {
	dir, cfg := buildCheckpoints(t)

	t.Run("list", func(t *testing.T) {
		out, err := captureStdout(t, func() error { return cmdList([]string{"-dir", dir}) })
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 4 { // header + 3 checkpoints
			t.Fatalf("list printed %d lines, want 4:\n%s", len(lines), out)
		}
		for _, want := range []string{"ITER", "SHARDS", "checkpoint-00000006"} {
			if !strings.Contains(out, want) {
				t.Fatalf("list output missing %q:\n%s", want, out)
			}
		}
		// Each row reports its run's worker count as its shard count.
		for i, want := range []string{"2", "2", "3"} {
			if f := strings.Fields(lines[i+1]); len(f) < 2 || f[1] != want {
				t.Fatalf("row %q: want %s shards", lines[i+1], want)
			}
		}
	})

	t.Run("verify newest", func(t *testing.T) {
		out, err := captureStdout(t, func() error { return cmdVerify([]string{"-dir", dir}) })
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "iteration    6") || !strings.Contains(out, ": OK") {
			t.Fatalf("verify output:\n%s", out)
		}
	})

	t.Run("verify sharded", func(t *testing.T) {
		out, err := captureStdout(t, func() error { return cmdVerify([]string{"-dir", dir, "-iter", "4"}) })
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"iteration    4", "shard 0", "shard 1", ": OK"} {
			if !strings.Contains(out, want) {
				t.Fatalf("verify output missing %q:\n%s", want, out)
			}
		}
		if !strings.Contains(out, "K=4") || !strings.Contains(out, "threads=2") {
			t.Fatalf("verify output missing config summary (K=%d threads=%d):\n%s", cfg.K, cfg.Threads, out)
		}
	})

	t.Run("verify missing iteration", func(t *testing.T) {
		if _, err := captureStdout(t, func() error {
			return cmdVerify([]string{"-dir", dir, "-iter", "99"})
		}); err == nil {
			t.Fatal("verify accepted an iteration with no checkpoint")
		}
	})

	t.Run("diff sharded pair", func(t *testing.T) {
		out, err := captureStdout(t, func() error {
			return cmdDiff([]string{"-dir", dir, "-a", "2", "-b", "4"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "<-- differs") {
			t.Fatalf("diff of distinct iterations flagged nothing:\n%s", out)
		}
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "fingerprint") && strings.Contains(l, "differs") {
				t.Fatalf("same corpus flagged as differing: %q", l)
			}
			if strings.HasPrefix(l, "iteration") && !strings.Contains(l, "differs") {
				t.Fatalf("iterations 2 vs 4 not flagged: %q", l)
			}
		}
	})

	t.Run("diff across worker counts", func(t *testing.T) {
		out, err := captureStdout(t, func() error {
			return cmdDiff([]string{"-dir", dir, "-a", "4", "-b", "6"})
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "shards") && !strings.Contains(l, "differs") {
				t.Fatalf("shard layouts 2 vs 3 not flagged: %q", l)
			}
		}
	})

	t.Run("corrupt shard body", func(t *testing.T) {
		ck, err := train.ReadManifest(filepath.Join(dir, "checkpoint-00000004"))
		if err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(ck.Dir, ck.ShardFiles[1])
		raw, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff // body byte: size and magic stay intact
		if err := os.WriteFile(shard, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = captureStdout(t, func() error { return cmdVerify([]string{"-dir", dir, "-iter", "4"}) })
		if err == nil {
			t.Fatal("verify accepted a corrupt shard")
		}
		if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corruption error does not name the shard and cause: %v", err)
		}
	})
}

func TestCkptCLIBadArgs(t *testing.T) {
	empty := t.TempDir()
	for name, fn := range map[string]func() error{
		"list no dir":      func() error { return cmdList(nil) },
		"verify no dir":    func() error { return cmdVerify(nil) },
		"diff no dir":      func() error { return cmdDiff([]string{"-a", "1", "-b", "2"}) },
		"diff missing b":   func() error { return cmdDiff([]string{"-dir", empty, "-a", "1"}) },
		"verify empty dir": func() error { return cmdVerify([]string{"-dir", empty}) },
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := captureStdout(t, fn); err == nil {
				t.Fatal("accepted")
			}
		})
	}

	// An empty directory is a valid thing to list: nothing retained yet.
	out, err := captureStdout(t, func() error { return cmdList([]string{"-dir", empty}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no checkpoints") {
		t.Fatalf("list of empty dir: %q", out)
	}
}

// TestCkptDeltas drives the deltas subcommand against a real publish
// target: a base snapshot plus a two-link WARPDLT chain written by the
// production publisher, then the same chain with one corrupted link.
func TestCkptDeltas(t *testing.T) {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 40, V: 50, K: 4, MeanLen: 15, Alpha: 0.1, Beta: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampler.PaperDefaults(4)
	cfg.M = 2
	m, err := warplda.Train(c, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spec := filepath.Join(dir, "news")
	pub, err := warplda.NewDeltaPublisher(spec, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// perturb nudges a few counts so each publish yields non-empty cells.
	perturb := func(salt int32) {
		for i := 0; i < 3; i++ {
			m.Cw[(int(salt)*13+i*7)%len(m.Cw)]++
		}
		for k := range m.Ck {
			m.Ck[k] = 0
		}
		for w := 0; w < m.V; w++ {
			for k := 0; k < m.Cfg.K; k++ {
				m.Ck[k] += int64(m.Cw[w*m.Cfg.K+k])
			}
		}
	}
	if _, err := pub.Publish(m, 5); err != nil { // base
		t.Fatal(err)
	}
	perturb(1)
	if _, err := pub.Publish(m, 6); err != nil { // gen 1
		t.Fatal(err)
	}
	perturb(2)
	r, err := pub.Publish(m, 7) // gen 2
	if err != nil {
		t.Fatal(err)
	}
	if r.Gen != 2 {
		t.Fatalf("second delta has generation %d, want 2", r.Gen)
	}

	out, err := captureStdout(t, func() error { return cmdDeltas([]string{"-publish", spec}) })
	if err != nil {
		t.Fatalf("deltas rejected a healthy chain: %v\n%s", err, out)
	}
	for _, want := range []string{"chain OK: 2 deltas", "GEN", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("deltas output missing %q:\n%s", want, out)
		}
	}

	// One flipped byte in the newest link: that row reports CORRUPT and
	// the command exits non-zero naming the rejected count.
	data, err := os.ReadFile(r.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(r.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = captureStdout(t, func() error { return cmdDeltas([]string{"-publish", spec}) })
	if err == nil {
		t.Fatalf("deltas accepted a corrupt chain:\n%s", out)
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("error does not count the rejected file: %v", err)
	}
	if !strings.Contains(out, "CORRUPT") {
		t.Fatalf("output does not flag the corrupt link:\n%s", out)
	}

	// No deltas at all is healthy: a full-snapshot-only target.
	if _, err := train.RemoveDeltaFiles(spec); err != nil {
		t.Fatal(err)
	}
	out, err = captureStdout(t, func() error { return cmdDeltas([]string{"-publish", spec}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no delta files") {
		t.Fatalf("empty chain: %q", out)
	}
}

// TestCkptCLIOneShard: a baseline sampler's checkpoint is a one-shard
// manifest — list and verify show it as such, and a flipped byte in the
// shard fails verify naming shard 0.
func TestCkptCLIOneShard(t *testing.T) {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 40, V: 50, K: 4, MeanLen: 15, Alpha: 0.1, Beta: 0.05, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampler.PaperDefaults(4)
	g, err := baselines.NewCGS(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := train.Run(g, c, cfg, train.Options{Iters: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}

	out, err := captureStdout(t, func() error { return cmdList([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("list printed %d lines, want header + 1:\n%s", len(lines), out)
	}
	if f := strings.Fields(lines[1]); len(f) < 2 || f[1] != "1" {
		t.Fatalf("cgs checkpoint listed as %q, want 1 shard", lines[1])
	}

	out, err = captureStdout(t, func() error { return cmdVerify([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sampler      CGS", "shards       1", "shard 0 (shard-000.ckpt)", ": OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("verify output missing %q:\n%s", want, out)
		}
	}

	shard := filepath.Join(dir, "checkpoint-00000002", "shard-000.ckpt")
	raw, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(shard, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = captureStdout(t, func() error { return cmdVerify([]string{"-dir", dir}) })
	if err == nil {
		t.Fatal("verify accepted a corrupt shard")
	}
	if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption error does not name shard 0 and the checksum: %v", err)
	}
}
