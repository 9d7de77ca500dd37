package train_test

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/fsio"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// goldenDir holds one fixture per durable format (see golden_test.go at
// the repository root).
const goldenDir = "../../testdata/golden"

// goldenWarp copies the committed `warp` checkpoint fixture — iteration
// 2 of a 2-thread WarpLDA run on the golden corpus, written by an
// earlier release (testdata/golden/generate.go) — into a directory the
// test may damage, and returns it with the corpus it belongs to.
func goldenWarp(t *testing.T) (string, *corpus.Corpus) {
	t.Helper()
	src := filepath.Join(goldenDir, "warp", "checkpoint-00000002")
	dir := t.TempDir()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mc, err := corpus.OpenMapped(filepath.Join(goldenDir, "corpus.warpcorpus"))
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	return dir, corpus.Materialize(mc)
}

// resumeWarp loads the checkpoint in dir and resumes a fresh WarpLDA
// sampler from it for two more iterations.
func resumeWarp(t *testing.T, dir string, c *corpus.Corpus) error {
	t.Helper()
	ck, err := train.Load(dir)
	if err != nil {
		return err
	}
	_, err = train.Run(newWarp(t, c, ck.Cfg), c, ck.Cfg, train.Options{Iters: ck.Iter + 2, ResumeFrom: ck})
	return err
}

// TestCheckpointCorruption mirrors model_io_test.go's table on the
// committed manifest fixture: every class of on-disk damage is rejected
// — by Load for the manifest, before any state reaches the sampler for
// a shard — so resume never trains on garbage.
func TestCheckpointCorruption(t *testing.T) {
	dir, c := goldenWarp(t)
	if err := resumeWarp(t, dir, c); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	manifest, shard := train.ManifestFileName, "shard-000.ckpt"
	cases := []struct {
		name, file string
		mutate     func([]byte) []byte
	}{
		{"empty file", manifest, func(b []byte) []byte { return nil }},
		{"truncated magic", manifest, func(b []byte) []byte { return b[:4] }},
		{"bad magic", manifest, func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}},
		{"wrong version", manifest, func(b []byte) []byte {
			b[len("WARPMANI")] = 0x7f
			return b
		}},
		{"truncated body", manifest, func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated trailer", manifest, func(b []byte) []byte { return b[:len(b)-2] }},
		{"flipped header byte", manifest, func(b []byte) []byte {
			b[len(b)/4] ^= 0x10
			return b
		}},
		{"flipped state byte", shard, func(b []byte) []byte {
			b[len(b)-64] ^= 0x01
			return b
		}},
		{"flipped trailer", manifest, func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, c := goldenWarp(t)
			path := filepath.Join(dir, tc.file)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := resumeWarp(t, dir, c); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
		})
	}
}

// rewriteShard replaces shard i's sampler stream with mutate's result
// inside a valid WARPSHRD envelope, its header kept, and rewrites the
// manifest so that its size and CRC vouch for the new file: only the
// sampler-level restore can then catch the damage.
func rewriteShard(t *testing.T, ck *train.Checkpoint, i int, mutate func([]byte) []byte) {
	t.Helper()
	const magic = "WARPSHRD\x01"
	const header = 4 * 8 // iteration, fingerprint, shard index, shard count
	path := filepath.Join(ck.Dir, ck.ShardFiles[i])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[len(magic) : len(raw)-4]
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	size, crc, err := fsio.WriteEnvelope(f, magic, func(w io.Writer) error {
		if _, err := w.Write(body[:header]); err != nil {
			return err
		}
		_, err := w.Write(mutate(append([]byte(nil), body[header:]...)))
		return err
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	ck.ShardSizes[i], ck.ShardCRCs[i] = size, crc
	if err := ck.WriteManifestFile(filepath.Join(ck.Dir, train.ManifestFileName)); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint whose files are intact — every envelope CRC-valid, the
// manifest vouching for each shard — but whose shard stream is damaged
// must fail at restore time and leave the target sampler untouched and
// usable.
func TestCheckpointBadStateBlobFailsCleanly(t *testing.T) {
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated state": func(b []byte) []byte { return b[:len(b)-8] },
		"state dims for a different run": func(b []byte) []byte {
			// M is the third word after the stream's 5-byte tag: the
			// shard now claims another M than the run's.
			b[5+8+8] ^= 1
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, c := goldenWarp(t)
			ck, err := train.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			rewriteShard(t, ck, 0, mutate)
			if ck, err = train.ReadManifest(dir); err != nil {
				t.Fatalf("rewritten manifest rejected: %v", err)
			}
			target := newWarp(t, c, ck.Cfg)
			before := sampler.CopyAssignments(target.Assignments())
			if _, err := train.Run(target, c, ck.Cfg, train.Options{Iters: ck.Iter + 2, ResumeFrom: ck}); err == nil {
				t.Fatal("damaged shard stream accepted")
			}
			if !reflect.DeepEqual(before, target.Assignments()) {
				t.Fatal("failed resume mutated the sampler")
			}
			target.Iterate() // must still be usable
		})
	}
}

// Length fields the trailer vouches for but no bound has checked yet
// must not size an allocation: a well-checksummed manifest claiming a
// huge trace, alpha vector or shard table fails with an error, having
// allocated next to nothing. Each claim sits just past its bound, so a
// reader without the bound allocates several times the budget.
func TestCheckpointHugeLengthsFailFast(t *testing.T) {
	const budget = 256 << 10
	config := func(e *sampler.Enc, k int) {
		e.Str("WarpLDA")
		e.Int(k)    // K
		e.F64(0.1)  // alpha
		e.F64(0.01) // beta
		e.Int(2)    // M
		e.U64(42)   // seed
		e.Int(1)    // threads
	}
	envelope := func(e *sampler.Enc) { // a plausible one, no trace points
		config(e, 8)
		e.Int(0) // no alpha vector
		e.Int(4) // iter
		e.Int(0) // elapsed
		e.Str("WarpLDA")
		e.Int(0)
		e.U64(7) // fingerprint
	}
	for _, tc := range []struct {
		name string
		body func(e *sampler.Enc)
	}{
		{"trace count", func(e *sampler.Enc) {
			config(e, 8)
			e.Int(0) // no alpha vector
			e.Int(4)
			e.Int(0)
			e.Str("WarpLDA")
			e.Int(train.MaxTracePoints + 1)
		}},
		{"alpha vector via huge K", func(e *sampler.Enc) {
			config(e, train.MaxTopics+1)
			e.Int(1)                   // alpha vector present...
			e.Int(train.MaxTopics + 1) // ...with K entries, none of which follow
		}},
		{"shard count", func(e *sampler.Enc) {
			envelope(e)
			e.Int(train.MaxShards + 1)
		}},
		{"stream ends before trailer", envelope}, // no shard table at all
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f, err := os.Create(filepath.Join(dir, train.ManifestFileName))
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = fsio.WriteEnvelope(f, "WARPMANI\x01", func(w io.Writer) error {
				e := sampler.NewEnc(w)
				tc.body(e)
				return e.Err()
			})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = train.ReadManifest(dir)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile manifest accepted")
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= budget {
				t.Fatalf("rejecting it allocated %d bytes, budget %d", n, budget)
			}
		})
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := train.Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
	if _, err := train.Load(t.TempDir()); err == nil {
		t.Fatal("directory without a checkpoint accepted")
	}
}

func TestPublishPath(t *testing.T) {
	good := []struct{ spec, path, name string }{
		{"models/news", filepath.Join("models", "news.bin"), "news"},
		{"/srv/lda/models/nytimes-k100", "/srv/lda/models/nytimes-k100.bin", "nytimes-k100"},
		{"models//news", filepath.Join("models", "news.bin"), "news"},
	}
	for _, tc := range good {
		path, name, err := train.PublishPath(tc.spec)
		if err != nil {
			t.Errorf("PublishPath(%q): %v", tc.spec, err)
			continue
		}
		if path != tc.path || name != tc.name {
			t.Errorf("PublishPath(%q) = (%q, %q), want (%q, %q)", tc.spec, path, name, tc.path, tc.name)
		}
	}
	for _, spec := range []string{"", "news", "models/news.bin", "models/", "models/.."} {
		if _, _, err := train.PublishPath(spec); err == nil {
			t.Errorf("PublishPath(%q) accepted", spec)
		}
	}
}
