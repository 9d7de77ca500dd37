package core

import (
	"bytes"
	"io"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// fuzzCorpus and fuzzConfig are the golden fixtures' corpus and config
// (testdata/golden/generate.go), which the checked-in seeds of
// FuzzDecodeShard were written for.
func fuzzCorpus() *corpus.Corpus {
	return &corpus.Corpus{V: 4, Docs: [][]int32{{0, 0, 1, 2}, {1, 3}, {0, 1, 2, 2, 3}}}
}

func fuzzConfig() sampler.Config {
	cfg := sampler.PaperDefaults(3)
	cfg.M = 1
	cfg.Seed = 7
	return cfg
}

// FuzzDecodeShard feeds the shard decoder hostile bytes. The seeds
// (testdata/fuzz/FuzzDecodeShard) are the golden distributed fixture's
// shard 0, a one-thread core.Warp shard, and the golden warp fixture's
// shard 0, a stream of the retired wshd layout that must be refused.
// DecodeWorkerState must never panic, and a stream it accepts must
// re-encode to the bytes it consumed (the layout has one encoding).
// DecodeShards, over the stream as a one-shard set, must never panic
// either, and a set it accepts must place every token.
func FuzzDecodeShard(f *testing.F) {
	c, cfg := fuzzCorpus(), fuzzConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeWorkerState(bytes.NewReader(data), cfg.K, cfg.M, c.NumDocs(), c.V, c.NumTokens())
		if err == nil {
			var re bytes.Buffer
			if err := EncodeWorkerState(&re, st); err != nil {
				t.Fatal(err)
			}
			if re.Len() > len(data) || !bytes.Equal(re.Bytes(), data[:re.Len()]) {
				t.Fatalf("accepted stream does not re-encode to its bytes:\n got %x\nwant %x", re.Bytes(), data)
			}
		}
		states, pos, err := DecodeShards(cfg, c, c.Doc, []io.Reader{bytes.NewReader(data)})
		if err == nil && (len(states) != 1 || len(pos) != c.NumTokens()) {
			t.Fatalf("accepted a set of %d shards placing %d of %d tokens", len(states), len(pos), c.NumTokens())
		}
	})
}
