package train_test

import (
	"reflect"
	"testing"

	"warplda/internal/baselines"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// TestOneShardCheckpointResumeBitIdentical: a sampler without sharded
// state checkpoints through train.Run as a one-shard manifest, and
// Load → Run resumes it with the trace and assignments of an
// uninterrupted run, to the bit — for every baseline. The baselines
// never read Threads, so a resume under another -threads is
// bit-identical too.
func TestOneShardCheckpointResumeBitIdentical(t *testing.T) {
	c := testCorpus(47)
	cfg := testCfg(6)
	for _, tc := range []struct {
		name string
		new  func(cfg sampler.Config) (sampler.Sampler, error)
	}{
		{"cgs", func(cfg sampler.Config) (sampler.Sampler, error) { return baselines.NewCGS(c, cfg) }},
		{"sparselda", func(cfg sampler.Config) (sampler.Sampler, error) { return baselines.NewSparseLDA(c, cfg) }},
		{"aliaslda", func(cfg sampler.Config) (sampler.Sampler, error) { return baselines.NewAliasLDA(c, cfg) }},
		{"flda", func(cfg sampler.Config) (sampler.Sampler, error) { return baselines.NewFPlusLDA(c, cfg) }},
		{"lightlda", func(cfg sampler.Config) (sampler.Sampler, error) {
			return baselines.NewLightLDA(c, cfg, baselines.LightLDAOptions{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(cfg sampler.Config) sampler.Sampler {
				t.Helper()
				s, err := tc.new(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			const n, total = 4, 8
			full := build(cfg)
			fullRes, err := train.Run(full, c, cfg, train.Options{Iters: total, EvalEvery: 2})
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			if _, err := train.Run(build(cfg), c, cfg, train.Options{
				Iters: n, EvalEvery: 2, CheckpointDir: dir,
			}); err != nil {
				t.Fatal(err)
			}
			ck, err := train.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.ShardFiles) != 1 || ck.Iter != n {
				t.Fatalf("checkpoint: shards=%d iter=%d, want a 1-shard manifest at %d",
					len(ck.ShardFiles), ck.Iter, n)
			}

			resume := func(cfg sampler.Config) {
				t.Helper()
				resumed := build(cfg)
				res, err := train.Run(resumed, c, cfg, train.Options{Iters: total, EvalEvery: 2, ResumeFrom: ck})
				if err != nil {
					t.Fatal(err)
				}
				sameTrace(t, res.Run, fullRes.Run)
				if !reflect.DeepEqual(resumed.Assignments(), full.Assignments()) {
					t.Fatal("resumed assignments differ from the uninterrupted run")
				}
			}
			resume(cfg)
			other := cfg
			other.Threads = 3
			resume(other)
		})
	}
}

// A manifest with more than one shard cannot resume into a sampler
// that restores from one stream.
func TestOneShardRefusesManyShards(t *testing.T) {
	c := testCorpus(48)
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
	ck.Sampler = "CGS" // pass verification; the shard count must still refuse
	g, err := baselines.NewCGS(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := sampler.CopyAssignments(g.Assignments())
	if _, err := train.Run(g, c, cfg, train.Options{Iters: 4, ResumeFrom: ck}); err == nil {
		t.Fatal("2-shard checkpoint restored into a one-stream sampler")
	}
	if !reflect.DeepEqual(before, g.Assignments()) {
		t.Fatal("refused restore mutated the sampler")
	}
}
