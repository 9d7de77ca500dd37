package train_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// legacyCheckpoint returns the bytes of the committed WARPCKPT fixture
// — a 6-iteration WarpLDA run on the golden corpus, written by the last
// release with a single-file writer (testdata/golden/generate.go) —
// plus the (corpus, config) it belongs to. The format is read-only
// now, and Read must keep rejecting every class of damage to it.
func legacyCheckpoint(t *testing.T) ([]byte, *checkpointEnv) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, "legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := train.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := corpus.OpenMapped(filepath.Join(goldenDir, "corpus.warpcorpus"))
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	return raw, &checkpointEnv{c: corpus.Materialize(mc), cfg: ck.Cfg}
}

// goldenDir holds one fixture per durable format (see golden_test.go at
// the repository root).
const goldenDir = "../../testdata/golden"

type checkpointEnv struct {
	c   *corpus.Corpus
	cfg sampler.Config
}

// TestCheckpointCorruption mirrors model_io_test.go's table: every
// class of on-disk damage must be rejected at Read time — resume never
// trains on garbage.
func TestCheckpointCorruption(t *testing.T) {
	raw, _ := legacyCheckpoint(t)

	if _, err := train.Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"truncated magic", func(b []byte) []byte { return b[:4] }},
		{"bad magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}},
		{"wrong version", func(b []byte) []byte {
			b[len("WARPCKPT")] = 0x7f
			return b
		}},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated trailer", func(b []byte) []byte { return b[:len(b)-2] }},
		{"flipped header byte", func(b []byte) []byte {
			b[len(b)/4] ^= 0x10
			return b
		}},
		{"flipped state byte", func(b []byte) []byte {
			b[len(b)-64] ^= 0x01
			return b
		}},
		{"flipped trailer", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), raw...))
			if _, err := train.Read(bytes.NewReader(mut)); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
		})
	}
}

// A checkpoint whose envelope is intact (valid CRC) but whose inner
// state blob is damaged must fail at restore time and leave the target
// sampler untouched and usable.
func TestCheckpointBadStateBlobFailsCleanly(t *testing.T) {
	raw, env := legacyCheckpoint(t)
	ck, err := train.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated state": func(b []byte) []byte { return b[:len(b)-8] },
		"state dims for a different run": func(b []byte) []byte {
			// Flip a payload byte so the embedded global counts no longer
			// match the assignments.
			b2 := append([]byte(nil), b...)
			b2[5+8+8] ^= 1
			return b2
		},
	} {
		t.Run(name, func(t *testing.T) {
			// The envelope is intact, so only the state-blob validation can
			// catch the damage.
			bad := *ck
			bad.State = mutate(append([]byte(nil), ck.State...))
			target := newWarp(t, env.c, env.cfg)
			before := sampler.CopyAssignments(target.Assignments())
			if _, err := train.Run(target, env.c, env.cfg, train.Options{Iters: 6, ResumeFrom: &bad}); err == nil {
				t.Fatal("damaged state blob accepted")
			}
			if !reflect.DeepEqual(before, target.Assignments()) {
				t.Fatal("failed resume mutated the sampler")
			}
			target.Iterate() // must still be usable
		})
	}
}

// Length fields read before the CRC trailer can vouch for them must be
// bounds-checked before they size an allocation: a corrupt checkpoint
// fails with an error, it does not OOM the trainer.
func TestCheckpointHugeLengthsFailFast(t *testing.T) {
	t.Run("trace count", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString("WARPCKPT\x01")
		e := sampler.NewEnc(&buf)
		e.Str("WarpLDA")
		e.Int(8)         // K
		e.F64(0.1)       // alpha
		e.F64(0.01)      // beta
		e.Int(2)         // M
		e.U64(42)        // seed
		e.Int(1)         // threads
		e.Int(0)         // no alpha vector
		e.Int(1 << 61)   // iter (absurd, but only a counter)
		e.Int(0)         // elapsed
		e.Str("WarpLDA") // trace name
		e.Int(1 << 40)   // trace point count: would be a 40 TB make()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := train.Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("absurd trace length accepted")
		}
	})
	t.Run("alpha vector via huge K", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString("WARPCKPT\x01")
		e := sampler.NewEnc(&buf)
		e.Str("WarpLDA")
		e.Int(1 << 40) // K (absurd)
		e.F64(0.1)
		e.F64(0.01)
		e.Int(2)
		e.U64(42)
		e.Int(1)
		e.Int(1)       // alpha vector present...
		e.Int(1 << 40) // ...claiming 2^40 entries
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := train.Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("absurd alpha-vector length accepted")
		}
	})
	t.Run("stream ends before trailer", func(t *testing.T) {
		raw, _ := legacyCheckpoint(t)
		ck, err := train.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		// A hand-built envelope cut off right after the fingerprint: the
		// state-plus-trailer section is missing entirely.
		var buf bytes.Buffer
		buf.WriteString("WARPCKPT\x01")
		e := sampler.NewEnc(&buf)
		e.Str(ck.Sampler)
		e.Int(ck.Cfg.K)
		e.F64(ck.Cfg.Alpha)
		e.F64(ck.Cfg.Beta)
		e.Int(ck.Cfg.M)
		e.U64(ck.Cfg.Seed)
		e.Int(ck.Cfg.Threads)
		e.Int(0)
		e.Int(ck.Iter)
		e.Int(int(ck.Elapsed))
		e.Str(ck.Trace.Sampler)
		e.Int(0) // no trace points
		e.U64(uint64(ck.Fingerprint))
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := train.Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("checkpoint without state/trailer accepted")
		}
	})
}

func TestLoadMissing(t *testing.T) {
	if _, err := train.Load(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing checkpoint accepted")
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
