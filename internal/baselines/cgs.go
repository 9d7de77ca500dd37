package baselines

import (
	"io"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// CGS is the plain collapsed Gibbs sampler of Griffiths & Steyvers
// (2004): for each token it enumerates all K topics of the conditional
//
//	p(z=k | rest) ∝ (C¬_dk + α) (C¬_wk + β) / (C¬_k + β̄)     (Eq. 1)
//
// — O(K) per token, the Table 2 reference row every fast sampler is
// measured against.
type CGS struct {
	*state
	probs []float64
}

// NewCGS builds the sampler with random initialization.
func NewCGS(c *corpus.Corpus, cfg sampler.Config) (*CGS, error) {
	st, err := newState(c, cfg)
	if err != nil {
		return nil, err
	}
	return &CGS{state: st, probs: make([]float64, cfg.K)}, nil
}

// Name implements sampler.Sampler.
func (g *CGS) Name() string { return "CGS" }

const cgsStateTag = "cgs\x01"

// StateTo writes the one-shard checkpoint stream. CGS's only mutable
// state beyond the counts (which are pure functions of z) is the
// assignment matrix and the RNG stream.
func (g *CGS) StateTo(w io.Writer) error {
	e := sampler.NewEnc(w)
	e.Tag(cgsStateTag)
	g.encodeBase(e)
	return e.Err()
}

// RestoreFrom restores what StateTo wrote.
func (g *CGS) RestoreFrom(r io.Reader) error {
	d := sampler.NewDec(r)
	d.Tag(cgsStateTag)
	z, rngState := g.decodeBase(d)
	if err := d.Err(); err != nil {
		return err
	}
	g.commitBase(z, rngState)
	return nil
}

// Iterate implements sampler.Sampler: one document-by-document sweep.
func (g *CGS) Iterate() {
	for d, doc := range g.c.Docs {
		cd := g.cdRow(d)
		for n, w := range doc {
			old := g.z[d][n]
			g.remove(d, w, old)
			cw := g.cwRow(w)
			var sum float64
			for k := 0; k < g.k; k++ {
				p := (float64(cd[k]) + g.alpha) * (float64(cw[k]) + g.beta) /
					(float64(g.ck[k]) + g.betaBar)
				sum += p
				g.probs[k] = sum
			}
			u := g.r.Float64() * sum
			// Cumulative linear scan; the last bucket absorbs rounding.
			t := int32(g.k - 1)
			for k := 0; k < g.k; k++ {
				if u < g.probs[k] {
					t = int32(k)
					break
				}
			}
			g.z[d][n] = t
			g.add(d, w, t)
		}
	}
}
