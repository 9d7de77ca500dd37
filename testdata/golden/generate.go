// Command generate writes the golden fixtures of golden_test.go: one
// tiny file (or checkpoint directory) per durable format, written by
// the writers of commit ba1d440. The go tool skips testdata/, so this
// program is only ever run by hand, inside a checkout of that commit:
//
//	git clone -q <this repository> /tmp/parent && cd /tmp/parent && git checkout -q ba1d440
//	mkdir gen && cp <this repository>/testdata/golden/generate.go gen/main.go
//	go run ./gen <this repository>/testdata/golden
//
// The one exception is warp-dshd. At ba1d440 core.Warp wrote shards in
// the wshd layout (the warp fixture), which has since been retired: no
// writer or reader of it is left, and golden_test.go keeps the fixture
// as input a restore must refuse. warp-dshd holds the same run written
// by core.Warp's dshd writer, so it was written by this program inside
// a checkout of the commit that added that directory, which has that
// writer, and only that directory was kept.
//
// Every input is fixed: a 3-document corpus over V=4 words, K=3 topics,
// M=1, seed 7. Training wall-clock times land in the checkpoint
// envelopes, so a rerun writes different checkpoint bytes; the other
// files are reproducible.
package main

import (
	"bytes"
	"os"
	"path/filepath"

	"warplda"
	"warplda/internal/cluster"
	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/dist"
	"warplda/internal/fsio"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

func main() {
	out := os.Args[1]
	must(os.MkdirAll(out, 0o755))
	c := &corpus.Corpus{V: 4, Docs: [][]int32{{0, 0, 1, 2}, {1, 3}, {0, 1, 2, 2, 3}}}

	// WARPCRP: the corpus cache.
	var uci bytes.Buffer
	must(corpus.WriteUCI(&uci, c))
	_, err := corpus.BuildCache(&uci, filepath.Join(out, "corpus.warpcorpus"), corpus.StreamOptions{})
	must(err)

	// WARPLDA: a model with a vocabulary.
	m := &warplda.Model{
		Cfg:    warplda.Config{K: 3, Alpha: 0.5, Beta: 0.1},
		V:      4,
		Vocab:  []string{"apple", "banana", "cherry", "date"},
		Cw:     []int32{2, 1, 0, 0, 2, 1, 1, 1, 1, 0, 0, 2},
		Ck:     []int64{3, 4, 4},
		LogLik: -20.5,
	}
	_, err = m.WriteFile(filepath.Join(out, "snapshot.bin"))
	must(err)

	// WARPDLT: generation 1 of that model's delta chain.
	d := &fsio.ModelDelta{
		V: 4, K: 3, Gen: 1, Iter: 7, LogLik: -19.25,
		BaseFP: fsio.ModelFingerprint(m.V, m.Cfg.K, m.Cw, m.Ck),
		Cells:  []fsio.DeltaCell{{W: 0, T: 1, Add: 1}, {W: 2, T: 0, Add: -1}},
		Ck:     []int64{2, 5, 4},
	}
	d.NewFP = fsio.ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck)
	_, err = fsio.AtomicWriteFile(filepath.Join(out, "snapshot.dlt.1"), ".gen-*", d.WriteDelta)
	must(err)

	// WRPF: one Block frame.
	blk := &dist.Block{Epoch: 1, Iter: 2, Phase: dist.PhaseWord, From: 0, To: 1,
		DS: []int32{0, 2}, WS: []int32{1, 3}, Payload: []int32{0, 2, 1, 1}}
	var frame bytes.Buffer
	must(dist.WriteFrame(&frame, dist.MsgBlock, blk.Encode()))
	must(os.WriteFile(filepath.Join(out, "block.wrpf"), frame.Bytes(), 0o644))

	cfg := sampler.PaperDefaults(3)
	cfg.M = 1
	cfg.Seed = 7

	// WARPMANI + WARPSHRD: sharded checkpoints at iteration 2 of a
	// 2-thread WarpLDA run and of a 2-worker distributed run.
	cfg.Threads = 2
	w, err := core.New(c, cfg)
	must(err)
	_, err = train.Run(w, c, cfg, train.Options{Iters: 2, EvalEvery: 1, CheckpointDir: filepath.Join(out, "warp")})
	must(err)
	// The same WarpLDA run once more, for warp-dshd (see the top).
	w, err = core.New(c, cfg)
	must(err)
	_, err = train.Run(w, c, cfg, train.Options{Iters: 2, EvalEvery: 1, CheckpointDir: filepath.Join(out, "warp-dshd")})
	must(err)
	ds, err := cluster.NewDistributed(c, cfg, cfg.Threads)
	must(err)
	_, err = train.Run(ds, c, cfg, train.Options{Iters: 2, EvalEvery: 1, CheckpointDir: filepath.Join(out, "distributed")})
	must(err)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
