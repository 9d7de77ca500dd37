// Package eval computes the model-quality metric used throughout the
// paper's evaluation: the log joint likelihood
//
//	L = log p(W, Z | α, β)
//	  = Σ_d [ lnΓ(ᾱ) − lnΓ(ᾱ+L_d) + Σ_k lnΓ(α_k+C_dk) − lnΓ(α_k) ]
//	  + Σ_k [ lnΓ(β̄) − lnΓ(β̄+C_k) + Σ_w lnΓ(β+C_kw) − lnΓ(β) ]
//
// (Section 6.1), plus per-token perplexity derived from it. All counts
// are recomputed from the assignment state so the metric is independent
// of any sampler's internal bookkeeping — a sampler with corrupted
// incremental counts cannot hide it from the evaluator.
//
// That makes LogJoint and LogJointAsym the oracle: the WarpLDA samplers
// sum the same terms from the count rows their phases build
// (core.Pass.DocRun, WordTerms, TopicTerms), and their tests hold those
// sums to these functions on the same state. Training evaluates the
// baselines, the live coordinator and any state without a phase sum
// (sampler.LogJoint) with them.
package eval

import (
	"math"

	"warplda/internal/corpus"
)

// lgamma drops the sign math.Lgamma returns; all arguments here are > 0.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// lgammaCache tabulates lnΓ(base + n) for integer n in [0, size). Counts
// in LDA likelihoods are small non-negative integers offset by a constant
// hyper-parameter, so a table turns most Lgamma calls into a load.
type lgammaCache struct {
	base float64
	tab  []float64
}

func newLgammaCache(base float64, size int) *lgammaCache {
	c := &lgammaCache{base: base, tab: make([]float64, size)}
	for i := range c.tab {
		c.tab[i] = lgamma(base + float64(i))
	}
	return c
}

func (c *lgammaCache) at(n int32) float64 {
	if int(n) < len(c.tab) {
		return c.tab[n]
	}
	return lgamma(c.base + float64(n))
}

// LogJoint computes log p(W, Z | α, β) for symmetric hyper-parameters.
// z[d][n] is the topic of token n of document d and must be shaped
// exactly like the corpus documents with values in [0, K). c may be any
// corpus.Provider — in-memory or memory-mapped.
func LogJoint(c corpus.Provider, z [][]int32, k int, alpha, beta float64) float64 {
	if len(z) != c.NumDocs() {
		panic("eval: z shape mismatch")
	}
	alphaBar := alpha * float64(k)
	lgA := newLgammaCache(alpha, 1024)
	lgAlpha := lgamma(alpha)
	lgAlphaBar := lgamma(alphaBar)

	var ll float64

	// Document side. cd is a dense counter with touched-list reset so the
	// per-document cost is O(L_d), not O(K).
	cd := make([]int32, k)
	var touched []int32
	for d, nd := 0, c.NumDocs(); d < nd; d++ {
		doc := c.Doc(d)
		zd := z[d]
		if len(zd) != len(doc) {
			panic("eval: z shape mismatch")
		}
		for _, t := range zd {
			if cd[t] == 0 {
				touched = append(touched, t)
			}
			cd[t]++
		}
		ll += lgAlphaBar - lgamma(alphaBar+float64(len(doc)))
		for _, t := range touched {
			ll += lgA.at(cd[t]) - lgAlpha
			cd[t] = 0
		}
		touched = touched[:0]
	}
	return wordSideLL(c, z, k, beta, ll)
}

// LogJointAsym is LogJoint for an asymmetric document-topic prior: the
// doc-side terms use per-topic α_k (with ᾱ = Σ α_k); the word side is
// unchanged.
func LogJointAsym(c corpus.Provider, z [][]int32, alphas []float64, beta float64) float64 {
	k := len(alphas)
	if len(z) != c.NumDocs() {
		panic("eval: z shape mismatch")
	}
	var alphaBar float64
	lgAlpha := make([]float64, k)
	for t, a := range alphas {
		alphaBar += a
		lgAlpha[t] = lgamma(a)
	}
	lgAlphaBar := lgamma(alphaBar)

	var ll float64
	cd := make([]int32, k)
	var touched []int32
	for d, nd := 0, c.NumDocs(); d < nd; d++ {
		doc := c.Doc(d)
		zd := z[d]
		if len(zd) != len(doc) {
			panic("eval: z shape mismatch")
		}
		for _, t := range zd {
			if cd[t] == 0 {
				touched = append(touched, t)
			}
			cd[t]++
		}
		ll += lgAlphaBar - lgamma(alphaBar+float64(len(doc)))
		for _, t := range touched {
			ll += lgamma(alphas[t]+float64(cd[t])) - lgAlpha[t]
			cd[t] = 0
		}
		touched = touched[:0]
	}
	return wordSideLL(c, z, k, beta, ll)
}

// wordSideLL adds the word-topic portion of the joint likelihood
// (identical for symmetric and asymmetric α) to the doc side ll, term by
// term.
func wordSideLL(c corpus.Provider, z [][]int32, k int, beta, ll float64) float64 {
	v := c.NumWords()
	betaBar := beta * float64(v)
	lgB := newLgammaCache(beta, 1024)
	lgBeta := lgamma(beta)
	wm := corpus.BuildWordMajorOf(c)
	topics := make([]int32, c.NumTokens())
	next := make([]int32, v)
	copy(next, wm.Start[:v])
	for d, nd := 0, c.NumDocs(); d < nd; d++ {
		for n, w := range c.Doc(d) {
			topics[next[w]] = z[d][n]
			next[w]++
		}
	}
	ck := make([]int64, k)
	cw := make([]int32, k)
	var touched []int32
	for w := 0; w < v; w++ {
		col := topics[wm.Start[w]:wm.Start[w+1]]
		for _, t := range col {
			if cw[t] == 0 {
				touched = append(touched, t)
			}
			cw[t]++
			ck[t]++
		}
		for _, t := range touched {
			ll += lgB.at(cw[t]) - lgBeta
			cw[t] = 0
		}
		touched = touched[:0]
	}
	lgBetaBar := lgamma(betaBar)
	for _, c := range ck {
		ll += lgBetaBar - lgamma(betaBar+float64(c))
	}
	return ll
}

// Perplexity converts a log joint likelihood over nTokens tokens into the
// standard exp(−L/T) perplexity scale.
func Perplexity(logJoint float64, nTokens int) float64 {
	if nTokens == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logJoint / float64(nTokens))
}
