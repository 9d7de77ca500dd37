package baselines

import (
	"io"
	"math"

	"warplda/internal/alias"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// neverBuilt marks a word whose stale proposal table has not been built
// yet (forces a build on first touch).
const neverBuilt = -1 << 62

// LightLDAOptions select the Figure-7 ablation variants that bridge from
// stock LightLDA to WarpLDA's MCEM semantics:
//
//	{}                                   → LightLDA (instant updates)
//	{DelayWordCounts}                    → LightLDA+DW
//	{DelayWordCounts, DelayDocCounts}    → LightLDA+DW+DD
//	{DelayWordCounts, DelayDocCounts,
//	 SimpleProposal}                     → LightLDA+DW+DD+SP
type LightLDAOptions struct {
	// DelayWordCounts freezes reads of C_w (and the word-proposal tables)
	// for a whole iteration.
	DelayWordCounts bool
	// DelayDocCounts freezes reads of C_d and c_k for a whole iteration.
	DelayDocCounts bool
	// SimpleProposal replaces q_word ∝ (C_wk+β)/(C_k+β̄) with WarpLDA's
	// q_word ∝ C_wk+β.
	SimpleProposal bool
	// RefreshTokens is the staleness budget of a word's proposal table in
	// tokens for stock LightLDA ("updated every 300 documents"). 0 means
	// 1% of the corpus. Ignored when DelayWordCounts is set.
	RefreshTokens int
}

// wordProp is the cached (stale) word-proposal distribution of one word:
// a sparse alias table over the count part plus the mass split against
// the shared smoothing part.
type wordProp struct {
	topics []int32
	counts []int32
	// weights are the alias weights the table was built from. They are
	// kept (rather than recomputed from counts) because they bake in the
	// ckDenom snapshot of the build moment, which a later checkpoint
	// restore could not otherwise reproduce.
	weights []float64
	tab     alias.SparseTable
	za      float64 // count-part mass
	builtAt int64   // token clock at build time
}

// LightLDA is Yuan et al.'s (WWW 2015) O(1) Metropolis–Hastings sampler
// with cycle proposals: each token takes M MH step pairs, alternating the
// document proposal q_doc ∝ C_dk+α (sampled by random positioning) and
// the word proposal q_word ∝ (C_wk+β)/(C_k+β̄) (sampled from stale alias
// tables). Counts are updated instantly after every token, which is what
// spreads its random accesses over the O(KV) matrix (Table 2).
type LightLDA struct {
	*state
	opts LightLDAOptions

	words      []wordProp
	smoothTab  alias.Table
	zbSmooth   float64
	ckDenom    []float64 // (c_k+β̄) snapshot backing the stale proposals
	clock      int64
	iterStart  int64
	refresh    int64
	probsBuf   []float64
	mhPairs    int
	cdSnap     []int32 // +DD: frozen C_d
	ckSnap     []int32 // +DD: frozen c_k
	variantTag string
}

// NewLightLDA builds the sampler with random initialization.
func NewLightLDA(c *corpus.Corpus, cfg sampler.Config, opts LightLDAOptions) (*LightLDA, error) {
	st, err := newState(c, cfg)
	if err != nil {
		return nil, err
	}
	l := &LightLDA{
		state:    st,
		opts:     opts,
		words:    make([]wordProp, c.V),
		ckDenom:  make([]float64, cfg.K),
		probsBuf: make([]float64, cfg.K),
		mhPairs:  cfg.M,
	}
	if l.mhPairs < 1 {
		l.mhPairs = 1
	}
	l.refresh = int64(opts.RefreshTokens)
	if l.refresh <= 0 {
		l.refresh = int64(c.NumTokens()/100 + 1)
	}
	l.variantTag = "LightLDA"
	if opts.DelayWordCounts {
		l.variantTag += "+DW"
	}
	if opts.DelayDocCounts {
		l.variantTag += "+DD"
	}
	if opts.SimpleProposal {
		l.variantTag += "+SP"
	}
	for i := range l.words {
		l.words[i].builtAt = neverBuilt
	}
	l.rebuildSmoothing()
	return l, nil
}

// Name implements sampler.Sampler.
func (l *LightLDA) Name() string { return l.variantTag }

const lightLDAStateTag = "lite\x01"

// StateTo writes the one-shard checkpoint stream. Beyond the base,
// LightLDA's stale per-word proposal tables are genuine state: each is
// serialized as the (topics, counts, weights, za, builtAt) it was built
// from, together with the token clock that schedules rebuilds, so stock
// LightLDA's refresh cadence survives a resume exactly. The smoothing
// table and ckDenom snapshot are rebuilt at the top of every Iterate
// and need no serialization.
func (l *LightLDA) StateTo(w io.Writer) error {
	e := sampler.NewEnc(w)
	e.Tag(lightLDAStateTag)
	l.encodeBase(e)
	e.Int(int(l.clock))
	for wid := 0; wid < l.c.V; wid++ {
		wp := &l.words[wid]
		if wp.builtAt == neverBuilt {
			e.Int(0)
			continue
		}
		e.Int(1)
		e.I32s(wp.topics)
		e.I32s(wp.counts)
		e.F64s(wp.weights)
		e.F64(wp.za)
		e.Int(int(wp.builtAt))
	}
	return e.Err()
}

// RestoreFrom restores what StateTo wrote.
func (l *LightLDA) RestoreFrom(r io.Reader) error {
	d := sampler.NewDec(r)
	d.Tag(lightLDAStateTag)
	z, rngState := l.decodeBase(d)
	clock := int64(d.Int())
	words := make([]wordProp, l.c.V)
	for wid := 0; wid < l.c.V && d.Err() == nil; wid++ {
		wp := &words[wid]
		wp.builtAt = neverBuilt
		switch has := d.Int(); has {
		case 0:
		case 1:
			wp.topics = d.I32s("word proposal topics")
			wp.counts = d.I32sLen("word proposal counts", len(wp.topics))
			wp.weights = d.F64s("word proposal weights")
			wp.za = d.F64()
			wp.builtAt = int64(d.Int())
			d.CheckTopics("word proposal topics", wp.topics, l.k)
			if d.Err() == nil && len(wp.weights) != len(wp.topics) {
				d.Failf("baselines: word %d has %d weights for %d topics", wid, len(wp.weights), len(wp.topics))
			}
			// Proposal weights come from positive counts (optionally over a
			// positive denominator): strictly positive, finite. za is their
			// sum. Corrupt floats would skew every word-proposal draw and
			// acceptance ratio without erroring.
			for i, q := range wp.weights {
				if !(q > 0) || math.IsInf(q, 0) {
					d.Failf("baselines: corrupt proposal weight %g for word %d entry %d", q, wid, i)
					break
				}
			}
			if d.Err() == nil && (!(wp.za >= 0) || math.IsInf(wp.za, 0)) {
				d.Failf("baselines: corrupt proposal mass %g for word %d", wp.za, wid)
			}
			// staleCw binary-searches the topic list; enforce its sort
			// invariant rather than trusting the blob.
			for i := 1; i < len(wp.topics) && d.Err() == nil; i++ {
				if wp.topics[i] <= wp.topics[i-1] {
					d.Failf("baselines: word %d stale topics not ascending", wid)
				}
			}
		default:
			d.Failf("baselines: corrupt word-proposal flag %d for word %d", has, wid)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	l.commitBase(z, rngState)
	l.clock = clock
	l.words = words
	for wid := range l.words {
		wp := &l.words[wid]
		if wp.builtAt != neverBuilt && len(wp.topics) > 0 {
			wp.tab.Build(wp.topics, wp.weights)
		}
	}
	l.rebuildSmoothing()
	return nil
}

// rebuildSmoothing refreshes the shared smoothing alias table and the
// c_k denominator snapshot the stale proposals are built against.
func (l *LightLDA) rebuildSmoothing() {
	var zb float64
	for k := 0; k < l.k; k++ {
		l.ckDenom[k] = float64(l.ck[k]) + l.betaBar
		var q float64
		if l.opts.SimpleProposal {
			q = l.beta
		} else {
			q = l.beta / l.ckDenom[k]
		}
		l.probsBuf[k] = q
		zb += q
	}
	l.smoothTab.Build(l.probsBuf)
	l.zbSmooth = zb
}

// rebuildWord refreshes word w's stale sparse proposal.
func (l *LightLDA) rebuildWord(w int32) {
	wp := &l.words[w]
	wp.topics = wp.topics[:0]
	wp.counts = wp.counts[:0]
	row := l.cwRow(w)
	for k, c := range row {
		if c > 0 {
			wp.topics = append(wp.topics, int32(k))
			wp.counts = append(wp.counts, c)
		}
	}
	var za float64
	wp.weights = wp.weights[:0]
	for i, k := range wp.topics {
		var q float64
		if l.opts.SimpleProposal {
			q = float64(wp.counts[i])
		} else {
			q = float64(wp.counts[i]) / l.ckDenom[k]
		}
		wp.weights = append(wp.weights, q)
		za += q
	}
	if len(wp.topics) > 0 {
		wp.tab.Build(wp.topics, wp.weights)
	}
	wp.za = za
	wp.builtAt = l.clock
}

// staleCw returns the word count of topic k as of word w's last rebuild.
// The topic list is ascending (built by a row scan), so binary search.
func (l *LightLDA) staleCw(w int32, k int32) int32 {
	wp := &l.words[w]
	lo, hi := 0, len(wp.topics)
	for lo < hi {
		mid := (lo + hi) / 2
		if wp.topics[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(wp.topics) && wp.topics[lo] == k {
		return wp.counts[lo]
	}
	return 0
}

// qWord evaluates the stale word-proposal density (unnormalized) at k.
func (l *LightLDA) qWord(w, k int32) float64 {
	c := float64(l.staleCw(w, k))
	if l.opts.SimpleProposal {
		return c + l.beta
	}
	return (c + l.beta) / l.ckDenom[k]
}

// drawWord samples from the stale word proposal of w.
func (l *LightLDA) drawWord(w int32) int32 {
	wp := &l.words[w]
	if wp.za > 0 && l.r.Float64()*(wp.za+l.zbSmooth) < wp.za {
		return wp.tab.Draw(l.r)
	}
	return int32(l.smoothTab.Draw(l.r))
}

// Read accessors honoring the delayed-update switches. The live counts
// exclude the current token (it is removed first); the snapshots include
// it — exactly the difference between CGS-style and MCEM-style reads.
func (l *LightLDA) cdGet(d int, k int32) float64 {
	if l.opts.DelayDocCounts {
		return float64(l.cdSnap[d*l.k+int(k)])
	}
	return float64(l.cd[d*l.k+int(k)])
}

func (l *LightLDA) cwGet(w, k int32) float64 {
	if l.opts.DelayWordCounts {
		return float64(l.staleCw(w, k))
	}
	return float64(l.cw[int(w)*l.k+int(k)])
}

func (l *LightLDA) ckGet(k int32) float64 {
	if l.opts.DelayDocCounts {
		return float64(l.ckSnap[k])
	}
	return float64(l.ck[k])
}

// pTarget is the (unnormalized) sampling target at topic k.
func (l *LightLDA) pTarget(d int, w, k int32) float64 {
	return (l.cdGet(d, k) + l.alpha) * (l.cwGet(w, k) + l.beta) /
		(l.ckGet(k) + l.betaBar)
}

// Iterate implements sampler.Sampler: one document-by-document sweep of
// M (doc, word) MH proposal pairs per token.
func (l *LightLDA) Iterate() {
	l.iterStart = l.clock
	l.rebuildSmoothing()
	if l.opts.DelayDocCounts {
		l.cdSnap = append(l.cdSnap[:0], l.cd...)
		l.ckSnap = append(l.ckSnap[:0], l.ck...)
	}
	kAlpha := l.alpha * float64(l.k)
	for d, doc := range l.c.Docs {
		ld := len(doc)
		pDocCount := float64(ld) / (float64(ld) + kAlpha)
		for n, w := range doc {
			old := l.z[d][n]
			l.remove(d, w, old)

			wp := &l.words[w]
			stale := wp.builtAt < l.iterStart
			if !l.opts.DelayWordCounts {
				stale = wp.builtAt <= l.clock-l.refresh
			}
			if stale {
				l.rebuildWord(w)
			}

			cur := old
			for step := 0; step < l.mhPairs; step++ {
				// --- Document proposal ---
				var t int32
				if l.r.Float64() < pDocCount {
					t = l.z[d][l.r.Intn(ld)] // includes the removed token's old topic
				} else {
					t = int32(l.r.Intn(l.k))
				}
				if t != cur {
					// q_doc(k) = C_dk+α with the token included; live counts
					// exclude it, so add the indicator back.
					qd := func(k int32) float64 {
						q := l.cdGet(d, k) + l.alpha
						if !l.opts.DelayDocCounts && k == old {
							q++
						}
						return q
					}
					pi := l.pTarget(d, w, t) * qd(cur) / (l.pTarget(d, w, cur) * qd(t))
					if pi >= 1 || l.r.Float64() < pi {
						cur = t
					}
				}

				// --- Word proposal ---
				t = l.drawWord(w)
				if t != cur {
					pi := l.pTarget(d, w, t) * l.qWord(w, cur) /
						(l.pTarget(d, w, cur) * l.qWord(w, t))
					if pi >= 1 || l.r.Float64() < pi {
						cur = t
					}
				}
			}

			l.add(d, w, cur)
			l.z[d][n] = cur
			l.clock++
		}
	}
}
