package cluster

import (
	"fmt"
	"testing"

	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// BenchmarkDistributedIterate times whole passes of the sharded sampler
// at the shapes of internal/core's BenchmarkWordPhase: long documents at
// K = 256, M = 2, and Zipf short documents at K = 4096, M = 1.
func BenchmarkDistributedIterate(b *testing.B) {
	benchIterate(b, "p", func(c *corpus.Corpus, cfg sampler.Config, p int) (sampler.Sampler, error) {
		return NewDistributed(c, cfg, p)
	})
}

// BenchmarkCoreIterate is BenchmarkDistributedIterate's reference:
// core.Warp on the same shapes with as many threads as workers.
func BenchmarkCoreIterate(b *testing.B) {
	benchIterate(b, "T", func(c *corpus.Corpus, cfg sampler.Config, p int) (sampler.Sampler, error) {
		cfg.Threads = p
		return core.New(c, cfg)
	})
}

func benchIterate(b *testing.B, workers string, build func(*corpus.Corpus, sampler.Config, int) (sampler.Sampler, error)) {
	nyt, err := corpus.GenerateLDA(corpus.NYTimesLike(0.01))
	if err != nil {
		b.Fatal(err)
	}
	nytCfg := sampler.PaperDefaults(256)
	nytCfg.M = 2
	shapes := []struct {
		name string
		c    *corpus.Corpus
		cfg  sampler.Config
	}{
		{"nyt-K256-M2", nyt, nytCfg},
		{"zipf-K4096-M1", corpus.GenerateZipf(20000, 30000, 60, 1.1, 7), sampler.PaperDefaults(4096)},
	}
	for _, sh := range shapes {
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/%s=%d", sh.name, workers, p), func(b *testing.B) {
				s, err := build(sh.c, sh.cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					s.Iterate()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Iterate()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.c.NumTokens()), "ns/token")
			})
		}
	}
}
