package warplda

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
// writers of commit ba1d440, except warp-dshd and distributed, the
// dshd\x02 shard streams (testdata/golden/generate.go is the generator,
// and its comment the command that ran it). The warp fixture holds
// shards of the retired wshd layout, kept as input that must be
// refused.
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
		if err := ck.RestoreInto(s); err == nil || !strings.Contains(err.Error(), `"wshd\x01"`) {
			t.Fatalf("restore of wshd shards: err=%v, want a refusal naming the wshd tag", err)
		}
		if !reflect.DeepEqual(before, s.Assignments()) {
			t.Fatal("refused restore mutated the sampler")
		}
		s.Iterate()
	})

	t.Run("WARPMANI+WARPSHRD/warp-dshd", func(t *testing.T) {
		ck, s := restoreGolden(t, "warp-dshd", c)
		reDir := rewriteGolden(t, ck, s)
		for _, f := range append([]string{train.ManifestFileName}, ck.ShardFiles...) {
			sameFile(t, filepath.Join(reDir, f), filepath.Join(ck.Dir, f))
		}
		resumeGolden(t, ck, c)
	})

	// The distributed fixture re-writes to its own bytes, and two
	// iterations from it reach the assignments of a fresh four-iteration
	// run, whose hash is pinned: the draws are keyed by the iteration the
	// checkpoint is at, which the shard streams do not hold, so a restore
	// that lost it, or any change to the keying, shows here.
	t.Run("WARPMANI+WARPSHRD/distributed", func(t *testing.T) {
		ck, s := restoreGolden(t, "distributed", c)
		reDir := rewriteGolden(t, ck, s)
		for _, f := range append([]string{train.ManifestFileName}, ck.ShardFiles...) {
			sameFile(t, filepath.Join(reDir, f), filepath.Join(ck.Dir, f))
		}

		s.Iterate()
		s.Iterate()
		h := sha256.New()
		for _, zd := range s.Assignments() {
			binary.Write(h, binary.LittleEndian, zd)
		}
		if got, want := fmt.Sprintf("%x", h.Sum(nil)), "fc7c3e64b8290e86820788184e4129f537172a815cd9c40b34825df8e2dd4492"; got != want {
			t.Fatalf("assignments two iterations after the fixture hash to %s, want %s", got, want)
		}
		fresh := goldenSampler(t, ck, c)
		for i := 0; i < ck.Iter+2; i++ {
			fresh.Iterate()
		}
		if !reflect.DeepEqual(fresh.Assignments(), s.Assignments()) {
			t.Fatal("two iterations from the fixture differ from an uninterrupted run")
		}
		resumeGolden(t, ck, c)
	})
}

// restoreGolden restores the checkpoint in goldenDir/name (or at the
// absolute path name) into the sampler that wrote it, exactly.
func restoreGolden(t *testing.T, name string, c *corpus.Corpus) (*train.Checkpoint, sampler.Sharded) {
	t.Helper()
	if !filepath.IsAbs(name) {
		name = filepath.Join(goldenDir, name)
	}
	ck, err := train.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	s := goldenSampler(t, ck, c)
	if err := ck.RestoreInto(s); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return ck, s
}

// rewriteGolden writes s as a checkpoint of ck's metadata and returns
// its directory.
func rewriteGolden(t *testing.T, ck *train.Checkpoint, s sampler.Sharded) string {
	t.Helper()
	re := &train.Checkpoint{
		Sampler: ck.Sampler, Cfg: ck.Cfg, Iter: ck.Iter, Elapsed: ck.Elapsed,
		Trace: ck.Trace, Fingerprint: ck.Fingerprint,
	}
	reDir, err := re.WriteSharded(t.TempDir(), s)
	if err != nil {
		t.Fatal(err)
	}
	return reDir
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
