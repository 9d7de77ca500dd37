package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// goldenWarp is the checkpoint fixture written by core.Warp's legacy
// wshd writer (testdata/golden/generate.go).
var goldenWarp = filepath.Join("..", "..", "testdata", "golden", "warp")

// legacyShards returns the golden wshd shard streams, each cut out of
// its WARPSHRD file (magic, 32-byte header, stream, CRC32 trailer), and
// a fresh sampler of the fixture's corpus and config.
func legacyShards(t *testing.T) ([][]byte, func() *Warp) {
	t.Helper()
	ck, err := train.Load(goldenWarp)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := corpus.OpenMapped(filepath.Join(goldenWarp, "..", "corpus.warpcorpus"))
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.Materialize(mc)
	mc.Close()
	const head = len("WARPSHRD\x01") + 4*8
	streams := make([][]byte, len(ck.ShardFiles))
	for i, name := range ck.ShardFiles {
		raw, err := os.ReadFile(filepath.Join(ck.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = raw[head : len(raw)-4]
		if string(streams[i][:5]) != "wshd\x01" {
			t.Fatalf("fixture shard %d opens with %q, want the wshd tag", i, streams[i][:5])
		}
	}
	return streams, func() *Warp {
		w, err := New(c, ck.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
}

// TestLegacyShardsRejectBadInput is the corruption table of the
// read-only wshd branch, over the golden fixture's shard bytes: the
// intact streams restore exactly, and every class of damage fails with
// the sampler untouched and still usable.
func TestLegacyShardsRejectBadInput(t *testing.T) {
	good, fresh := legacyShards(t)
	restore := func(t *testing.T, streams [][]byte) (*Warp, [][]int32, bool, error) {
		t.Helper()
		w := fresh()
		before := sampler.CopyAssignments(w.Assignments())
		readers := make([]io.Reader, len(streams))
		for i, s := range streams {
			readers[i] = bytes.NewReader(s)
		}
		reseeded, err := w.RestoreShards(2, w.Name(), readers)
		return w, before, reseeded, err
	}
	if _, _, reseeded, err := restore(t, good); err != nil || reseeded {
		t.Fatalf("intact legacy shards: reseeded=%v err=%v", reseeded, err)
	}

	for _, tc := range []struct {
		name   string
		mutate func([][]byte) [][]byte
	}{
		{"truncated", func(s [][]byte) [][]byte {
			s[1] = s[1][:len(s[1])-5]
			return s
		}},
		{"bad tag", func(s [][]byte) [][]byte {
			s[0] = append([]byte("xxxx\x01"), s[0][5:]...)
			return s
		}},
		{"swapped shards", func(s [][]byte) [][]byte {
			s[0], s[1] = s[1], s[0]
			return s
		}},
		{"topic out of range", func(s [][]byte) [][]byte {
			// The last int32 of a stream is a payload value.
			s[0][len(s[0])-3] ^= 0x7f
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := make([][]byte, len(good))
			for i := range cp {
				cp[i] = append([]byte(nil), good[i]...)
			}
			w, before, _, err := restore(t, tc.mutate(cp))
			if err == nil {
				t.Fatal("damaged legacy shards accepted")
			}
			if !reflect.DeepEqual(before, w.Assignments()) {
				t.Fatal("failed restore mutated the sampler")
			}
			w.Iterate() // must still be usable
		})
	}
}
