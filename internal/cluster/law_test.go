package cluster

import (
	"math"
	"math/bits"
	"testing"

	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// lawCorpus is small enough to enumerate the sampler's whole state: six
// tokens, word 0 in all three documents, a document of length 1.
func lawCorpus() *corpus.Corpus {
	return &corpus.Corpus{V: 4, Docs: [][]int32{{0, 1, 2}, {0, 3}, {0}}}
}

// exactTwoPassLaw is the law of the assignments after two Iterate calls
// from a fresh sampler (z uniform, proposals equal to z) at K = 2, M = 1,
// computed by dynamic programming over the full state: the 6 assignment
// bits and the 6 pending-proposal bits. It follows Eq. 7 and the per-pass
// kernel of the paper in float64 and shares no code with the samplers:
//
//   - C_k is the histogram of z at the start of the pass, frozen for it;
//   - word phase: c_w of the current z, the word-rate chain over the doc
//     proposals, recount, word proposals ∝ c_w + β;
//   - doc phase: c_d of the current z, the doc-rate chain over the word
//     proposals, doc proposals ∝ the post-chain c_d + α_k.
//
// Entry z of the result is the probability that token n (in corpus order)
// ends on topic bit n of z.
func exactTwoPassLaw(c *corpus.Corpus, alphas []float64, beta float64) []float64 {
	type token struct{ d, w int }
	var toks []token
	lw := make([]float64, c.V)
	ld := make([]float64, len(c.Docs))
	for d, doc := range c.Docs {
		for _, w := range doc {
			toks = append(toks, token{d, int(w)})
			lw[w]++
			ld[d]++
		}
	}
	n := len(toks)
	mask := 1<<n - 1
	betaBar := beta * float64(c.V)
	alphaBar := alphas[0] + alphas[1]
	topic := func(x, i int) int { return x >> i & 1 }
	// prod is the probability of the bit vector x when bit i is 1 with
	// probability p1[i], independently.
	prod := func(p1 []float64, x int) float64 {
		q := 1.0
		for i, p := range p1 {
			if topic(x, i) == 1 {
				q *= p
			} else {
				q *= 1 - p
			}
		}
		return q
	}
	counts := func(z int) (cw, cd [][2]float64) {
		cw, cd = make([][2]float64, c.V), make([][2]float64, len(c.Docs))
		for i, tk := range toks {
			cw[tk.w][topic(z, i)]++
			cd[tk.d][topic(z, i)]++
		}
		return cw, cd
	}
	// accept is min(1, π) of Eq. 7 for a move s → t against the frozen
	// row counts x, the prior and C_k + β̄.
	accept := func(x [2]float64, prior []float64, ckb [2]float64, s, t int) float64 {
		return math.Min(1, (x[t]+prior[t])*ckb[s]/((x[s]+prior[s])*ckb[t]))
	}
	betas := []float64{beta, beta}

	pass := func(law []float64) []float64 {
		// Word phase: mass over (C_1 at the pass start, z after the chains).
		mid := make([][]float64, n+1)
		for ck1 := range mid {
			mid[ck1] = make([]float64, 1<<n)
		}
		p1 := make([]float64, n)
		for st, m := range law {
			if m == 0 {
				continue
			}
			z, props := st&mask, st>>n
			ck1 := bits.OnesCount(uint(z))
			ckb := [2]float64{float64(n-ck1) + betaBar, float64(ck1) + betaBar}
			cw, _ := counts(z)
			for i, tk := range toks {
				s, t := topic(z, i), topic(props, i)
				p1[i] = float64(s)
				if s != t {
					a := accept(cw[tk.w], betas, ckb, s, t)
					p1[i] = float64(t)*a + float64(s)*(1-a)
				}
			}
			for z2 := range mid[ck1] {
				mid[ck1][z2] += m * prod(p1, z2)
			}
		}
		// Doc phase, with the word proposals drawn from the recount.
		next := make([]float64, len(law))
		r1 := make([]float64, n)
		for ck1, row := range mid {
			ckb := [2]float64{float64(n-ck1) + betaBar, float64(ck1) + betaBar}
			for z2, m := range row {
				if m == 0 {
					continue
				}
				cw, cd := counts(z2)
				for i, tk := range toks {
					s := topic(z2, i)
					t := 1 - s
					q := (cw[tk.w][t] + beta) / (lw[tk.w] + 2*beta)
					move := q * accept(cd[tk.d], alphas, ckb, s, t)
					p1[i] = float64(t)*move + float64(s)*(1-move)
				}
				for z3 := 0; z3 <= mask; z3++ {
					m3 := m * prod(p1, z3)
					if m3 == 0 {
						continue
					}
					_, cd3 := counts(z3)
					for i, tk := range toks {
						r1[i] = (cd3[tk.d][1] + alphas[1]) / (ld[tk.d] + alphaBar)
					}
					for props := 0; props <= mask; props++ {
						next[z3|props<<n] += m3 * prod(r1, props)
					}
				}
			}
		}
		return next
	}

	law := make([]float64, 1<<(2*n))
	for z := 0; z <= mask; z++ {
		law[z|z<<n] = 1 / float64(mask+1)
	}
	law = pass(pass(law))
	out := make([]float64, mask+1)
	for st, m := range law {
		out[st&mask] += m
	}
	return out
}

// lawChiSquare compares observed counts with n·p, pooling the cells that
// expect fewer than five observations, and returns the statistic and its
// degrees of freedom.
func lawChiSquare(observed []int, p []float64, n int) (stat float64, df int) {
	var poolObs, poolExp float64
	term := func(o, e float64) {
		stat += (o - e) * (o - e) / e
		df++
	}
	for s, o := range observed {
		if e := float64(n) * p[s]; e < 5 {
			poolObs += float64(o)
			poolExp += e
		} else {
			term(float64(o), e)
		}
	}
	if poolExp > 0 {
		term(poolObs, poolExp)
	}
	return stat, df - 1
}

// chiSquare999 is the 0.999 quantile of χ² with df degrees of freedom
// (Wilson–Hilferty; 103.5 at df = 63).
func chiSquare999(df int) float64 {
	const z = 3.0902 // the standard normal's 0.999 quantile
	d := float64(df)
	h := 2 / (9 * d)
	return d * math.Pow(1-h+z*math.Sqrt(h), 3)
}

// Over a fixed list of seeds, the assignments two passes after a fresh
// start must follow exactTwoPassLaw for every sampler that claims to run
// WarpLDA: core serial and threaded, Distributed at one and two workers,
// and the asymmetric prior through core and the sharded path.
func TestTwoPassLawMatchesExact(t *testing.T) {
	c := lawCorpus()
	seeds := 20000
	if testing.Short() {
		seeds = 4000
	}
	base := sampler.Config{K: 2, Alpha: 0.3, Beta: 0.2, M: 1}
	alphaVec := []float64{0.5, 0.1}
	cases := []struct {
		name     string
		alphaVec []float64
		build    func(cfg sampler.Config) (sampler.Sampler, error)
	}{
		{"core/serial", nil, func(cfg sampler.Config) (sampler.Sampler, error) { return core.New(c, cfg) }},
		{"core/threads=2", nil, func(cfg sampler.Config) (sampler.Sampler, error) {
			cfg.Threads = 2
			return core.New(c, cfg)
		}},
		{"distributed/p=1", nil, func(cfg sampler.Config) (sampler.Sampler, error) { return NewDistributed(c, cfg, 1) }},
		{"distributed/p=2", nil, func(cfg sampler.Config) (sampler.Sampler, error) { return NewDistributed(c, cfg, 2) }},
		{"core/serial/alphavec", alphaVec, func(cfg sampler.Config) (sampler.Sampler, error) { return core.New(c, cfg) }},
		{"distributed/p=2/alphavec", alphaVec, func(cfg sampler.Config) (sampler.Sampler, error) { return NewDistributed(c, cfg, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alphas := []float64{base.Alpha, base.Alpha}
			if tc.alphaVec != nil {
				alphas = tc.alphaVec
			}
			want := exactTwoPassLaw(c, alphas, base.Beta)
			observed := make([]int, len(want))
			for seed := 1; seed <= seeds; seed++ {
				cfg := base
				cfg.Seed = uint64(seed)
				cfg.AlphaVec = tc.alphaVec
				s, err := tc.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Iterate()
				s.Iterate()
				z, i := 0, 0
				for _, zd := range s.Assignments() {
					for _, k := range zd {
						z |= int(k) << i
						i++
					}
				}
				observed[z]++
			}
			stat, df := lawChiSquare(observed, want, seeds)
			limit := chiSquare999(df)
			t.Logf("χ² = %.1f on %d degrees of freedom (0.999 quantile %.1f) over %d seeds", stat, df, limit, seeds)
			if stat > limit {
				t.Errorf("assignments after two passes do not follow the exact law: χ² = %.1f on %d degrees of freedom, limit %.1f",
					stat, df, limit)
			}
		})
	}
}
