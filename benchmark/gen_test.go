package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"warplda"
)

func corpusDigest(t *testing.T, w workload, seed uint64) [32]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "docword.txt")
	if _, err := writeTrainCorpus(w, scales["tiny"], seed, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

func TestCorporaFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w.Kind != "train" {
			continue
		}
		a, b, c := corpusDigest(t, w, 7), corpusDigest(t, w, 7), corpusDigest(t, w, 8)
		if a != b {
			t.Errorf("%s: the same seed gave two different corpora", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", w.Name)
		}
	}
}

func TestSchedulesFollowTheSeed(t *testing.T) {
	sc := scales["tiny"]
	fixtureCorpus := func(seed uint64) *warplda.Corpus {
		c, err := warplda.GenerateLDA(nytConfig(seed, sc.ServeScale, saltServeCorpus))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fp := func(name string, seed uint64, conn int) uint64 {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		return scheduleFingerprint(buildSchedule(w, sc, seed, conn, 200, fixtureCorpus(seed), sc.ServeK))
	}
	for _, name := range []string{"serve-singles", "serve-batch", "serve-refresh"} {
		if fp(name, 7, 0) != fp(name, 7, 0) {
			t.Errorf("%s: the same seed gave two different schedules", name)
		}
		if fp(name, 7, 0) == fp(name, 8, 0) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		if fp(name, 7, 0) == fp(name, 7, 1) {
			t.Errorf("%s: connections 0 and 1 send the same requests", name)
		}
	}
	if fp("serve-refresh", 7, 0) != fp("serve-singles", 7, 0) {
		t.Error("serve-refresh does not send serve-singles' request bytes")
	}
	if fp("serve-batch", 7, 0) == fp("serve-singles", 7, 0) {
		t.Error("serve-batch sends serve-singles' requests")
	}
}

func TestScheduleMix(t *testing.T) {
	sc := scales["tiny"]
	c, err := warplda.GenerateLDA(nytConfig(7, sc.ServeScale, saltServeCorpus))
	if err != nil {
		t.Fatal(err)
	}
	singles, _ := findWorkload("serve-singles")
	infers, long := 0, 0
	reqs := buildSchedule(singles, sc, 7, 0, 4000, c, sc.ServeK)
	for _, q := range reqs {
		if q.Infer {
			infers++
			if len(q.Docs) != 1 {
				t.Fatalf("serve-singles infer carries %d documents", len(q.Docs))
			}
			if q.Tokens > 16 {
				long++
			}
		}
	}
	if share := float64(infers) / float64(len(reqs)); share < 0.77 || share > 0.83 {
		t.Errorf("infer share %.3f, want about 0.80", share)
	}
	if share := float64(long) / float64(infers); share < 0.26 || share > 0.34 {
		t.Errorf("128-token share %.3f of infers, want about 0.30", share)
	}
	batch, _ := findWorkload("serve-batch")
	for _, q := range buildSchedule(batch, sc, 7, 0, 20, c, sc.ServeK) {
		if !q.Infer || len(q.Docs) != sc.BatchDocs {
			t.Fatalf("serve-batch request: infer=%v documents=%d", q.Infer, len(q.Docs))
		}
	}
}

// TestTargetCalibration checks, at full scale, that a segment crosses
// its workload's target log-likelihood between 40% and 80% of its
// iterations, on the seed the targets were read from (1) and on two
// that were not. It takes about two minutes, so it runs only when
// BENCHMARK_FULL is set.
func TestTargetCalibration(t *testing.T) {
	if os.Getenv("BENCHMARK_FULL") == "" {
		t.Skip("set BENCHMARK_FULL=1 to run the full-scale calibration check")
	}
	out := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, name := range []string{"train-nyt-serial", "train-zipf-threaded"} {
		for _, seed := range []string{"1", "2", "3"} {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-root", "..", "-build-dir", buildDirForTests, "-workload", name, "-seed", seed, "-out", out}, &stdout, &stderr); code != 0 {
				t.Fatalf("%s seed %s: exit %d\n%s", name, seed, code, stderr.String())
			}
		}
	}
	recs, err := readRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		share := r.Info["iters_to_ll"] / (r.Info["iterations"] / trainSegments)
		t.Logf("%s seed %d: target crossed at iteration %.1f of %.1f per segment (%.0f%%)",
			r.Workload, r.Seed, r.Info["iters_to_ll"], r.Info["iterations"]/trainSegments, 100*share)
		if share < 0.4 || share > 0.8 {
			t.Errorf("%s seed %d: target crossed at %.0f%% of a segment's iterations, want 40%%-80%%", r.Workload, r.Seed, 100*share)
		}
	}
}
