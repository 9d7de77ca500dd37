package train_test

import (
	"fmt"
	"reflect"
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
// -threads resumes under another, or the same, silently, and ends in
// the assignments, global counts and trace of the uninterrupted run —
// which is the same run at every thread count.
func TestWarpElasticThreadsResume(t *testing.T) {
	c := testCorpus(9)
	cfg := testCfg(8)
	full := newWarp(t, c, cfg)
	fullRes, err := train.Run(full, c, cfg, train.Options{Iters: 8, EvalEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		from, to int
	}{{"1_to_4", 1, 4}, {"4_to_2", 4, 2}, {"4_to_4_bit_exact", 4, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			ck := halfCheckpoint(t, tc.from)
			cfg := testCfg(8)
			cfg.Threads = tc.to
			resumed := newWarp(t, c, cfg)
			var notices []string
			res, err := train.Run(resumed, c, cfg, train.Options{
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
			if len(notices) != 0 {
				t.Fatalf("resume logged %q, want silence", notices)
			}
			sameTrace(t, res.Run, fullRes.Run)
			if !reflect.DeepEqual(resumed.Assignments(), full.Assignments()) {
				t.Fatal("resumed run's assignments differ from the uninterrupted run's")
			}
			if !reflect.DeepEqual(resumed.GlobalCounts(), full.GlobalCounts()) {
				t.Fatal("resumed run's global counts differ from the uninterrupted run's")
			}
		})
	}
}
