package infer_test

import (
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/infer"
)

// BenchmarkFoldIn times the engine alone at the shape the repository
// benchmark's serve-batch workload serves (benchmark/README.md): a
// K=256 model trained for 20 iterations on NYTimesLike(0.005), requests
// of 16 documents of 256 tokens, 20 sweeps, MHSteps 2, one worker. It
// reports ns per token per sweep, so a regression in the chain shows
// without the HTTP stack around it.
func BenchmarkFoldIn(b *testing.B) {
	const nDocs, docLen, sweeps = 16, 256, 20
	p, c, err := trainParams(corpus.NYTimesLike(0.005), 256, 20)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := infer.NewEngine(p, infer.Options{MHSteps: 2, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	docs := make([][]int32, nDocs)
	for i, d := 0, 0; i < nDocs; i++ {
		for ; len(docs[i]) < docLen; d++ {
			docs[i] = append(docs[i], c.Docs[d]...)
		}
		docs[i] = docs[i][:docLen]
	}
	run := func(name string, fold func(seed uint64) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fold(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nDocs*docLen*sweeps), "ns/token-sweep")
		})
	}
	run("single", func(seed uint64) error {
		for _, doc := range docs {
			if _, err := eng.Infer(doc, sweeps, seed); err != nil {
				return err
			}
		}
		return nil
	})
	run("batch", func(seed uint64) error {
		_, err := eng.InferBatch(docs, sweeps, seed)
		return err
	})
}
