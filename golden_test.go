package warplda

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/dist"
	"warplda/internal/fsio"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// goldenDir holds one fixture per durable format, written by the
// writers of commit ba1d440, except warp-dshd (testdata/golden/generate.go
// is the generator, and its comment the command that ran it). The warp
// fixture holds shards of the retired wshd layout, kept as input that
// must be refused.
var goldenDir = filepath.Join("testdata", "golden")

// TestGoldenFixtures reads the fixture of every durable format,
// re-encodes the decoded value and requires the fixture's bytes back:
// the byte layouts of docs/FORMATS.md do not change. Every checkpoint
// directory must also resume, except the warp fixture, whose retired
// wshd shards must be refused.
func TestGoldenFixtures(t *testing.T) {
	mc, err := corpus.OpenMapped(filepath.Join(goldenDir, "corpus.warpcorpus"))
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	c := corpus.Materialize(mc)

	t.Run("WARPCRP", func(t *testing.T) {
		var uci bytes.Buffer
		if err := corpus.WriteUCI(&uci, c); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "corpus.warpcorpus")
		if _, err := corpus.BuildCache(&uci, path, corpus.StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		sameFile(t, path, filepath.Join(goldenDir, "corpus.warpcorpus"))
	})

	model := goldenBytes(t, "snapshot.bin")
	t.Run("WARPLDA", func(t *testing.T) {
		m, err := ReadModel(bytes.NewReader(model))
		if err != nil {
			t.Fatal(err)
		}
		var re bytes.Buffer
		if _, err := m.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		sameBytes(t, re.Bytes(), model)
	})

	t.Run("WARPDLT", func(t *testing.T) {
		raw := goldenBytes(t, "snapshot.dlt.1")
		d, err := fsio.ReadDelta(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ReadModel(bytes.NewReader(model))
		if err != nil {
			t.Fatal(err)
		}
		if d.BaseFP != fsio.ModelFingerprint(m.V, m.Cfg.K, m.Cw, m.Ck) {
			t.Fatal("delta does not chain from the model fixture")
		}
		var re bytes.Buffer
		if _, err := d.WriteDelta(&re); err != nil {
			t.Fatal(err)
		}
		sameBytes(t, re.Bytes(), raw)
	})

	t.Run("WRPF", func(t *testing.T) {
		raw := goldenBytes(t, "block.wrpf")
		typ, payload, err := dist.ReadFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if typ != dist.MsgBlock {
			t.Fatalf("frame type %s, want block", typ)
		}
		b, err := dist.DecodeBlock(payload, 3, 1, c.NumDocs(), c.V)
		if err != nil {
			t.Fatal(err)
		}
		var re bytes.Buffer
		if err := dist.WriteFrame(&re, typ, b.Encode()); err != nil {
			t.Fatal(err)
		}
		sameBytes(t, re.Bytes(), raw)
	})

	// The warp fixture's shards are in the retired wshd layout: the
	// restore must refuse them by their tag and leave the sampler as it
	// was, and still able to iterate.
	t.Run("WARPMANI+WARPSHRD/warp", func(t *testing.T) {
		ck, err := train.Load(filepath.Join(goldenDir, "warp"))
		if err != nil {
			t.Fatal(err)
		}
		s := goldenSampler(t, ck, c)
		before := sampler.CopyAssignments(s.Assignments())
		if _, err := ck.RestoreInto(s); err == nil || !strings.Contains(err.Error(), `"wshd\x01"`) {
			t.Fatalf("restore of wshd shards: err=%v, want a refusal naming the wshd tag", err)
		}
		if !reflect.DeepEqual(before, s.Assignments()) {
			t.Fatal("refused restore mutated the sampler")
		}
		s.Iterate()
	})

	for _, name := range []string{"warp-dshd", "distributed"} {
		t.Run("WARPMANI+WARPSHRD/"+name, func(t *testing.T) {
			ck, err := train.Load(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatal(err)
			}
			s := goldenSampler(t, ck, c)
			if reseeded, err := ck.RestoreInto(s); err != nil || reseeded {
				t.Fatalf("restore: reseeded=%v err=%v", reseeded, err)
			}
			re := &train.Checkpoint{
				Sampler: ck.Sampler, Cfg: ck.Cfg, Iter: ck.Iter, Elapsed: ck.Elapsed,
				Trace: ck.Trace, Fingerprint: ck.Fingerprint,
			}
			reDir, err := re.WriteSharded(t.TempDir(), s)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range append([]string{train.ManifestFileName}, ck.ShardFiles...) {
				sameFile(t, filepath.Join(reDir, f), filepath.Join(ck.Dir, f))
			}
			resumeGolden(t, ck, c)
		})
	}
}

// goldenSampler builds the sampler a checkpoint fixture was written by.
func goldenSampler(t *testing.T, ck *train.Checkpoint, c *corpus.Corpus) sampler.Sharded {
	t.Helper()
	var s sampler.Sharded
	var err error
	switch ck.Sampler {
	case "WarpLDA":
		s, err = core.New(c, ck.Cfg)
	case "WarpLDA-sharded":
		s, err = cluster.NewDistributed(c, ck.Cfg, ck.Cfg.Threads)
	default:
		t.Fatalf("no fixture sampler %q", ck.Sampler)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// resumeGolden continues a checkpoint fixture for two iterations.
func resumeGolden(t *testing.T, ck *train.Checkpoint, c *corpus.Corpus) {
	t.Helper()
	res, err := train.Run(goldenSampler(t, ck, c), c, ck.Cfg, train.Options{Iters: ck.Iter + 2, ResumeFrom: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Iter != ck.Iter+2 {
		t.Fatalf("resume: completed=%v iter=%d", res.Completed, res.Iter)
	}
}

func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from fixture %s:\n got %x\nwant %x", filepath.Base(got), want, g, w)
	}
}

func sameBytes(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoding differs from the fixture:\n got %x\nwant %x", got, want)
	}
}
