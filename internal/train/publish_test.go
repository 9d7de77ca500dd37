package train_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"warplda"
	"warplda/internal/registry"
	"warplda/internal/train"
)

// TestPublishNamesMatchRegistry keeps PublishPath's name rule in sync
// with the registry's, behaviorally: every name PublishPath accepts
// must actually be servable, and names the registry refuses must be
// rejected at publish time.
func TestPublishNamesMatchRegistry(t *testing.T) {
	c := testCorpus(31)
	cfg := testCfg(4)
	s := newWarp(t, c, cfg)
	s.Iterate()
	model := warplda.Snapshot(c, s, cfg)

	for _, name := range []string{"news", "News-1.a", "a", "k100_nytimes"} {
		dir := t.TempDir()
		path, got, err := train.PublishPath(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("PublishPath accepts registry-servable name %q? %v", name, err)
		}
		if got != name {
			t.Fatalf("PublishPath(%q) name = %q", name, got)
		}
		if _, err := model.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		reg, err := registry.Open(dir, registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Acquire(name); err != nil {
			t.Errorf("PublishPath accepted %q but the registry refuses it: %v", name, err)
		}
		reg.Close()
	}
	for _, name := range []string{"_nightly", ".hidden", "-dash", "über", "a b"} {
		if _, _, err := train.PublishPath("models/" + name); err == nil {
			t.Errorf("PublishPath accepted %q, which the registry will never serve", name)
		}
	}
}

// TestPublishServesWithoutRestart walks the whole pipeline the PR
// closes: train (with a checkpoint interruption in the middle), publish
// the final model into a serving model directory, and have an
// already-open PR-2 registry pick it up and serve inference — no
// restart.
func TestPublishServesWithoutRestart(t *testing.T) {
	c := testCorpus(30)
	cfg := testCfg(8)

	// Train 4 iterations, "crash", resume to 8 — the published model
	// must come out of the resumed run.
	ckDir := t.TempDir()
	if _, err := train.Run(newWarp(t, c, cfg), c, cfg, train.Options{
		Iters: 4, EvalEvery: 2, CheckpointDir: ckDir,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := train.Load(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	s := newWarp(t, c, cfg)
	if _, err := train.Run(s, c, cfg, train.Options{Iters: 8, EvalEvery: 2, ResumeFrom: ck}); err != nil {
		t.Fatal(err)
	}
	model := warplda.Snapshot(c, s, cfg)

	// The serving side is already up, watching an (empty) model dir.
	modelDir := t.TempDir()
	reg, err := registry.Open(modelDir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Acquire("news"); err == nil {
		t.Fatal("unpublished model served")
	}

	path, name, err := train.PublishPath(modelDir + "/news")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	snap, err := reg.Acquire(name)
	if err != nil {
		t.Fatalf("published model not served: %v", err)
	}
	if snap.Model.Cfg.K != cfg.K || snap.Model.V != c.V {
		t.Fatalf("served model has K=%d V=%d, want K=%d V=%d", snap.Model.Cfg.K, snap.Model.V, cfg.K, c.V)
	}
	theta, err := snap.Engine.Infer(c.Docs[0], 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range theta {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("served inference returned non-distribution (sum %g)", sum)
	}
}

// TestVersionedPublishPath pins the path/name scheme of versioned
// publishing and its guard rails.
func TestVersionedPublishPath(t *testing.T) {
	path, name, err := train.VersionedPublishPath("models/news", 120)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("models", "news@120.bin"); path != want || name != "news@120" {
		t.Fatalf("VersionedPublishPath = (%q, %q), want (%q, %q)", path, name, want, "news@120")
	}
	for _, bad := range []struct {
		spec string
		iter int
	}{
		{"models/news", -1},
		{"models/news.bin", 5},
		{"news", 5},
		{"models/ne@ws", 5}, // '@' is the version separator, not a name character
	} {
		if _, _, err := train.VersionedPublishPath(bad.spec, bad.iter); err == nil {
			t.Errorf("VersionedPublishPath(%q, %d) accepted", bad.spec, bad.iter)
		}
	}
}

// TestVersionedPublishServesAndRollsBack walks the versioned publish
// lifecycle against a live registry: publish iteration 8 (pinned name
// + latest pointer), serve both, publish iteration 16, watch the bare
// name hot-swap to it without a restart, and roll back by serving the
// still-pinned older version.
func TestVersionedPublishServesAndRollsBack(t *testing.T) {
	c := testCorpus(32)
	cfg := testCfg(6)
	s := newWarp(t, c, cfg)
	for i := 0; i < 8; i++ {
		s.Iterate()
	}
	model8 := warplda.Snapshot(c, s, cfg)

	modelDir := t.TempDir()
	spec := filepath.Join(modelDir, "news")
	publish := func(m *warplda.Model, iter int) string {
		t.Helper()
		vPath, _, err := train.VersionedPublishPath(spec, iter)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.WriteFile(vPath); err != nil {
			t.Fatal(err)
		}
		latest, err := train.PublishLatest(spec, iter)
		if err != nil {
			t.Fatal(err)
		}
		return latest
	}
	publish(model8, 8)

	reg, err := registry.Open(modelDir, registry.Options{ReloadInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	latest, err := reg.Acquire("news")
	if err != nil {
		t.Fatalf("latest pointer not served: %v", err)
	}
	pinned, err := reg.Acquire("news@8")
	if err != nil {
		t.Fatalf("pinned version not served: %v", err)
	}
	if latest.Model.LogLik != pinned.Model.LogLik {
		t.Fatalf("latest (LL %v) is not version 8 (LL %v)", latest.Model.LogLik, pinned.Model.LogLik)
	}

	// Train further and publish iteration 16; the open registry must
	// swap the bare name to it via hot reload, no restart.
	for i := 0; i < 8; i++ {
		s.Iterate()
	}
	model16 := warplda.Snapshot(c, s, cfg)
	if model16.LogLik == model8.LogLik {
		t.Fatal("degenerate test: models 8 and 16 are identical")
	}
	publish(model16, 16)

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := reg.Acquire("news")
		if err == nil && snap.Model.LogLik == model16.LogLik {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("latest pointer swap not picked up by hot reload")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rollback: the older pinned version is still there to serve, and
	// re-pointing latest at it rolls the bare name back.
	if _, err := reg.Acquire("news@8"); err != nil {
		t.Fatalf("pinned version lost after a newer publish: %v", err)
	}
	if _, err := train.PublishLatest(spec, 8); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		snap, err := reg.Acquire("news")
		if err == nil && snap.Model.LogLik == model8.LogLik {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rollback not picked up by hot reload")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// PublishLatest must refuse to install a pointer to a snapshot that
// was never written.
func TestPublishLatestRequiresSnapshot(t *testing.T) {
	if _, err := train.PublishLatest(filepath.Join(t.TempDir(), "news"), 7); err == nil {
		t.Fatal("latest pointer installed without its target")
	}
}

// TestPrunePublishedVersions pins the version-GC contract: keep the
// newest N pinned snapshots, never touch the latest pointer's target
// (even when a rollback re-pointed it at an old version), never touch
// files that are not this model's versions.
func TestPrunePublishedVersions(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "news")
	write := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{
		"news@10.bin", "news@20.bin", "news@30.bin", "news@40.bin",
		"news2@5.bin", // a different model's version
		"news@7b.bin", // not a version at all
	} {
		write(name)
	}
	// Roll back: latest points at the OLDEST version. Pruning must keep
	// it alive regardless of the keep window.
	if _, err := train.PublishLatest(spec, 10); err != nil {
		t.Fatal(err)
	}

	pruned, err := train.PrunePublishedVersions(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 || filepath.Base(pruned[0]) != "news@20.bin" {
		t.Fatalf("pruned = %v, want exactly news@20.bin", pruned)
	}
	for _, name := range []string{"news@10.bin", "news@30.bin", "news@40.bin", "news2@5.bin", "news@7b.bin"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s should have survived pruning: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "news@20.bin")); err == nil {
		t.Error("news@20.bin survived pruning")
	}
	// The latest pointer still resolves.
	if _, err := os.Stat(filepath.Join(dir, "news.bin")); err != nil {
		t.Errorf("latest pointer dangles: %v", err)
	}

	// A keep window wider than the history removes nothing.
	pruned, err = train.PrunePublishedVersions(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 0 {
		t.Fatalf("pruned = %v, want none", pruned)
	}

	if _, err := train.PrunePublishedVersions(spec, 0); err == nil {
		t.Fatal("keep=0 accepted; it would delete every version")
	}
}

// TestListPublishedVersions pins the one version lister serving and
// pruning share: numeric order, and only <name>@<digits>.bin files.
func TestListPublishedVersions(t *testing.T) {
	cases := []struct {
		name  string
		files []string // a trailing "/" makes a directory
		want  []int
	}{
		{"numeric order", []string{"news@10.bin", "news@9.bin", "news@100.bin"}, []int{9, 10, 100}},
		{"foreign names", []string{"news@5.bin", "news2@5.bin", "news@7b.bin", "news@3.bin/", "news.bin", "news@4.bin.tmp"}, []int{5}},
		{"none", []string{"other@1.bin"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range tc.files {
				p := filepath.Join(dir, f)
				var err error
				if f[len(f)-1] == '/' {
					err = os.Mkdir(p, 0o755)
				} else {
					err = os.WriteFile(p, []byte("snapshot"), 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			vers, err := train.ListPublishedVersions(dir, "news")
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, v := range vers {
				got = append(got, v.Iter)
				if want := fmt.Sprintf("news@%d.bin", v.Iter); v.File != want {
					t.Errorf("file %q, want %q", v.File, want)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("iters %v, want %v", got, tc.want)
			}
		})
	}
}
