package core

import (
	"fmt"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// The two shapes of the repository benchmark's train workloads
// (benchmark/README.md), serial so a phase is one kernel loop: long
// documents at a small K, and Zipf short documents at a K far above a
// row's length.
func nytShape(b *testing.B) (*corpus.Corpus, sampler.Config) {
	b.Helper()
	c, err := corpus.GenerateLDA(corpus.NYTimesLike(0.01))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sampler.PaperDefaults(256)
	cfg.M = 2
	return c, cfg
}

func zipfShape(*testing.B) (*corpus.Corpus, sampler.Config) {
	return zipfCorpus(), sampler.PaperDefaults(4096)
}

func zipfCorpus() *corpus.Corpus { return corpus.GenerateZipf(20000, 30000, 60, 1.1, 7) }

// benchPhase times one phase of full iterations (so the chains see the
// proposals the other phase drew) and reports ns/token of that phase.
func benchPhase(b *testing.B, shape func(*testing.B) (*corpus.Corpus, sampler.Config), word bool) {
	c, cfg := shape(b)
	w, err := New(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Iterate()
	}
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		w.heavyPhase()
		if word {
			b.StartTimer()
		}
		w.wordPhase()
		if word {
			b.StopTimer()
		} else {
			b.StartTimer()
		}
		w.docPhase()
		b.StopTimer()
		w.merge()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumTokens()), "ns/token")
}

func BenchmarkWordPhase(b *testing.B) {
	b.Run("nyt-K256-M2-dense", func(b *testing.B) { benchPhase(b, nytShape, true) })
	b.Run("zipf-K4096-M1", func(b *testing.B) { benchPhase(b, zipfShape, true) })
}

func BenchmarkDocPhase(b *testing.B) {
	b.Run("nyt-K256-M2-dense", func(b *testing.B) { benchPhase(b, nytShape, false) })
	b.Run("zipf-K4096-M1", func(b *testing.B) { benchPhase(b, zipfShape, false) })
}

// A count row's cost must depend on K only through the cache: the same
// corpus, serial, at three topic counts. The array is 4·K bytes per
// row, so the last shape runs with rows far larger than L2.
func BenchmarkIterateAcrossK(b *testing.B) {
	c := zipfCorpus()
	for _, k := range []int{4096, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("zipf-K%d-M1", k), func(b *testing.B) {
			w, err := New(c, sampler.PaperDefaults(k))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				w.Iterate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Iterate()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumTokens()), "ns/token")
		})
	}
}
