package train_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"warplda/internal/train"
)

// halfCheckpoint trains threads workers for 4 iterations and returns
// the loaded checkpoint, asserting one shard per thread (core.Warp
// implements sampler.Sharded at every thread count, one included).
func halfCheckpoint(t *testing.T, threads int) *train.Checkpoint {
	t.Helper()
	c := testCorpus(9)
	cfg := testCfg(8)
	cfg.Threads = threads
	dir := t.TempDir()
	res, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
		Iters: 4, EvalEvery: 2, CheckpointDir: dir, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := train.Load(res.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.ShardFiles) != threads {
		t.Fatalf("checkpoint has %d shards, want %d", len(ck.ShardFiles), threads)
	}
	return ck
}

// TestWarpElasticThreadsResume pins the shared-memory elastic contract
// end to end through the trainer: a Warp checkpoint written under one
// -threads resumes under another, carrying the model over exactly and
// logging the one reseed notice; an unchanged thread count resumes
// bit-identically with no notice, matching the distributed semantics.
func TestWarpElasticThreadsResume(t *testing.T) {
	c := testCorpus(9)
	for _, tc := range []struct{ from, to int }{{1, 4}, {4, 2}} {
		t.Run(fmt.Sprintf("%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			ck := halfCheckpoint(t, tc.from)
			cfg := testCfg(8)
			cfg.Threads = tc.to
			var notices []string
			res, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
				Iters: 8, EvalEvery: 2, ResumeFrom: ck,
				Logf: func(format string, args ...any) {
					notices = append(notices, fmt.Sprintf(format, args...))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Iter != 8 {
				t.Fatalf("elastic resume: completed=%v iter=%d", res.Completed, res.Iter)
			}
			if len(notices) != 1 || !strings.Contains(notices[0], "reseeded") {
				t.Fatalf("want exactly one reseed notice, got %q", notices)
			}
		})
	}

	t.Run("4_to_4_bit_exact", func(t *testing.T) {
		cfg := testCfg(8)
		cfg.Threads = 4
		full := newWarp(t, c, cfg)
		fullRes, err := train.Run(full, c, cfg, train.Options{Iters: 8, EvalEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		ck := halfCheckpoint(t, 4)
		resumed := newWarp(t, c, cfg)
		var notices []string
		resRes, err := train.Run(resumed, c, cfg, train.Options{
			Iters: 8, EvalEvery: 2, ResumeFrom: ck,
			Logf: func(format string, args ...any) {
				notices = append(notices, fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(notices) != 0 {
			t.Fatalf("same-count resume logged %q, want silence", notices)
		}
		sameTrace(t, resRes.Run, fullRes.Run)
		if !reflect.DeepEqual(resumed.Assignments(), full.Assignments()) {
			t.Fatal("same-count elastic resume diverged from uninterrupted run")
		}
	})
}
