package baselines

import (
	"io"
	"math"

	"warplda/internal/alias"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// AliasLDA is Li, Ahmed, Ravi & Smola's (KDD 2014) sampler. It splits the
// conditional into
//
//	p(k) ∝ C_dk (C_wk+β)/(C_k+β̄)   [doc part: exact, O(K_d)]
//	     +  α   (C_wk+β)/(C_k+β̄)   [word part: stale alias table, O(1)]
//
// draws from the mixture, and corrects the staleness of the word part
// with a Metropolis–Hastings step. Per-word alias tables are rebuilt
// every K_w draws, amortizing the O(K) build to O(1) per token. The
// stale distribution q_w is kept densely per word — the O(KV) random
// access footprint Table 2 attributes to this algorithm.
type AliasLDA struct {
	*state
	docTopics [][]int32 // non-zero topic list per document

	wordAlias  []*alias.Table
	staleQ     [][]float32 // per word, stale (C_wk+β)/(C_k+β̄)
	staleSum   []float64   // Σ_k staleQ[w][k]
	drawsLeft  []int32     // draws until rebuild
	mhSteps    int
	buildProbs []float64
}

// NewAliasLDA builds the sampler with random initialization.
func NewAliasLDA(c *corpus.Corpus, cfg sampler.Config) (*AliasLDA, error) {
	st, err := newState(c, cfg)
	if err != nil {
		return nil, err
	}
	a := &AliasLDA{
		state:      st,
		wordAlias:  make([]*alias.Table, c.V),
		staleQ:     make([][]float32, c.V),
		staleSum:   make([]float64, c.V),
		drawsLeft:  make([]int32, c.V),
		mhSteps:    cfg.M,
		buildProbs: make([]float64, cfg.K),
	}
	if a.mhSteps < 1 {
		a.mhSteps = 1
	}
	a.docTopics = make([][]int32, c.NumDocs())
	for d := range c.Docs {
		row := st.cdRow(d)
		for k, cnt := range row {
			if cnt > 0 {
				a.docTopics[d] = append(a.docTopics[d], int32(k))
			}
		}
	}
	return a, nil
}

// Name implements sampler.Sampler.
func (a *AliasLDA) Name() string { return "AliasLDA" }

const aliasLDAStateTag = "alia\x01"

// StateTo writes the one-shard checkpoint stream. The stale
// word-proposal machinery is real state: staleQ (the distribution each
// alias table was built from — the tables themselves are rebuilt from
// it on restore), staleSum, and the per-word rebuild countdowns, plus
// the per-document non-zero topic lists whose scan order matters for
// bit-identical resume.
func (a *AliasLDA) StateTo(w io.Writer) error {
	e := sampler.NewEnc(w)
	e.Tag(aliasLDAStateTag)
	a.encodeBase(e)
	e.I32Mat(a.docTopics)
	e.I32s(a.drawsLeft)
	for wid := 0; wid < a.c.V; wid++ {
		if a.staleQ[wid] == nil {
			e.Int(0)
			continue
		}
		e.Int(1)
		e.F32s(a.staleQ[wid])
		e.F64(a.staleSum[wid])
	}
	return e.Err()
}

// RestoreFrom restores what StateTo wrote.
func (a *AliasLDA) RestoreFrom(r io.Reader) error {
	d := sampler.NewDec(r)
	d.Tag(aliasLDAStateTag)
	z, rngState := a.decodeBase(d)
	if d.Err() != nil {
		return d.Err()
	}
	cd := make([]int32, len(a.cd))
	for di := range a.c.Docs {
		for _, t := range z[di] {
			cd[di*a.k+int(t)]++
		}
	}
	docTopics := decodeTopicLists(d, "doc topic lists", cd, a.c.NumDocs(), a.k)
	drawsLeft := d.I32sLen("rebuild countdowns", a.c.V)
	staleQ := make([][]float32, a.c.V)
	staleSum := make([]float64, a.c.V)
	for wid := 0; wid < a.c.V && d.Err() == nil; wid++ {
		switch has := d.Int(); has {
		case 0:
		case 1:
			staleQ[wid] = d.F32sLen("stale word distribution", a.k)
			staleSum[wid] = d.F64()
			// The stale densities are (C+β)/(C_k+β̄) values: strictly
			// positive and finite. A NaN or non-positive entry would feed
			// the MH correction and mixture weights silently.
			for k, q := range staleQ[wid] {
				if !(q > 0) || math.IsInf(float64(q), 0) {
					d.Failf("baselines: corrupt stale density %g for word %d topic %d", q, wid, k)
					break
				}
			}
			if !(staleSum[wid] > 0) || math.IsInf(staleSum[wid], 0) {
				d.Failf("baselines: corrupt stale mass %g for word %d", staleSum[wid], wid)
			}
		default:
			d.Failf("baselines: corrupt stale-table flag %d for word %d", has, wid)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	a.commitBase(z, rngState)
	a.docTopics = docTopics
	a.drawsLeft = drawsLeft
	a.staleQ = staleQ
	a.staleSum = staleSum
	// Rebuild each alias table from its serialized stale distribution —
	// rebuildWord constructs tables from the same float32-rounded values,
	// so the restored tables match the live ones bit for bit.
	for wid := 0; wid < a.c.V; wid++ {
		if staleQ[wid] == nil {
			a.wordAlias[wid] = nil
			continue
		}
		for k := 0; k < a.k; k++ {
			a.buildProbs[k] = float64(staleQ[wid][k])
		}
		if a.wordAlias[wid] == nil {
			a.wordAlias[wid] = &alias.Table{}
		}
		a.wordAlias[wid].Build(a.buildProbs)
	}
	return nil
}

// rebuildWord refreshes word w's stale distribution and alias table.
func (a *AliasLDA) rebuildWord(w int32) {
	if a.staleQ[w] == nil {
		a.staleQ[w] = make([]float32, a.k)
	}
	cw := a.cwRow(w)
	var sum float64
	for k := 0; k < a.k; k++ {
		q := (float64(cw[k]) + a.beta) / (float64(a.ck[k]) + a.betaBar)
		// Build table and normalizer from the float32-rounded value the MH
		// correction will read back from staleQ — and that a checkpoint
		// serializes — so the live table, the correction density, and a
		// table rebuilt on restore are all views of the same distribution.
		qr := float64(float32(q))
		a.staleQ[w][k] = float32(q)
		a.buildProbs[k] = qr
		sum += qr
	}
	if a.wordAlias[w] == nil {
		a.wordAlias[w] = &alias.Table{}
	}
	a.wordAlias[w].Build(a.buildProbs)
	a.staleSum[w] = sum
	// Rebuild after as many draws as the word has non-zero topics, so the
	// amortized build cost stays O(1) per draw.
	n := int32(0)
	for k := 0; k < a.k; k++ {
		if cw[k] > 0 {
			n++
		}
	}
	if n < 4 {
		n = 4
	}
	a.drawsLeft[w] = n
}

// Iterate implements sampler.Sampler: one document-by-document sweep.
func (a *AliasLDA) Iterate() {
	for d, doc := range a.c.Docs {
		cd := a.cdRow(d)
		for n, w := range doc {
			old := a.z[d][n]
			a.remove(d, w, old)
			if cd[old] == 0 {
				a.docTopics[d] = dropTopic(a.docTopics[d], old)
			}
			if a.wordAlias[w] == nil || a.drawsLeft[w] <= 0 {
				a.rebuildWord(w)
			}
			cw := a.cwRow(w)

			cur := old
			for step := 0; step < a.mhSteps; step++ {
				// Doc-part mass (exact, current counts).
				var pd float64
				for _, k := range a.docTopics[d] {
					pd += float64(cd[k]) * (float64(cw[k]) + a.beta) /
						(float64(a.ck[k]) + a.betaBar)
				}
				pw := a.alpha * a.staleSum[w]

				// Draw the proposal from the mixture.
				var t int32
				if a.r.Float64()*(pd+pw) < pd {
					u := a.r.Float64() * pd
					t = a.docTopics[d][len(a.docTopics[d])-1]
					for _, k := range a.docTopics[d] {
						u -= float64(cd[k]) * (float64(cw[k]) + a.beta) /
							(float64(a.ck[k]) + a.betaBar)
						if u <= 0 {
							t = k
							break
						}
					}
				} else {
					t = int32(a.wordAlias[w].Draw(a.r))
					a.drawsLeft[w]--
				}
				if t == cur {
					continue
				}

				// MH correction: target p uses fresh counts; proposal
				// density mixes the fresh doc part with the stale word part.
				pTrue := func(k int32) float64 {
					return (float64(cd[k]) + a.alpha) * (float64(cw[k]) + a.beta) /
						(float64(a.ck[k]) + a.betaBar)
				}
				qProp := func(k int32) float64 {
					return float64(cd[k])*(float64(cw[k])+a.beta)/
						(float64(a.ck[k])+a.betaBar) + a.alpha*float64(a.staleQ[w][k])
				}
				pi := pTrue(t) * qProp(cur) / (pTrue(cur) * qProp(t))
				if pi >= 1 || a.r.Float64() < pi {
					cur = t
				}
			}

			if cd[cur] == 0 {
				a.docTopics[d] = append(a.docTopics[d], cur)
			}
			a.add(d, w, cur)
			a.z[d][n] = cur
		}
	}
}
