package corpus

import (
	"fmt"
	"math"

	"warplda/internal/alias"
	"warplda/internal/rng"
)

// SyntheticConfig parameterizes GenerateLDA. The generator draws a corpus
// from the LDA generative process itself, so samplers have real latent
// structure to recover — the stand-in for the paper's NYTimes / PubMed /
// ClueWeb12 corpora.
type SyntheticConfig struct {
	D       int     // number of documents
	V       int     // vocabulary size
	K       int     // number of true topics
	MeanLen float64 // mean document length (Poisson)
	Alpha   float64 // document-topic Dirichlet parameter
	Beta    float64 // topic-word Dirichlet parameter
	Seed    uint64
}

// heapsV scales a vocabulary size sublinearly with the corpus scale
// factor (Heaps' law: V ∝ T^β with β ≈ 0.5), so scaled-down corpora keep
// a realistic type/token ratio instead of collapsing to a toy alphabet.
func heapsV(fullV int, scale float64) int {
	return imax(100, int(float64(fullV)*math.Sqrt(scale)))
}

// NYTimesLike returns a configuration whose shape statistics (T/D ≈ 332)
// follow the paper's NYTimes dataset, scaled by factor scale ∈ (0,1].
// scale=1 would be the full 300K-document corpus; D scales linearly, V
// by Heaps' law.
func NYTimesLike(scale float64) SyntheticConfig {
	return SyntheticConfig{
		D:       imax(50, int(300000*scale)),
		V:       heapsV(102000, scale),
		K:       50,
		MeanLen: 332,
		Alpha:   0.1,
		Beta:    0.01,
		Seed:    1,
	}
}

// PubMedLike returns a configuration following the paper's PubMed shape
// (short documents, T/D ≈ 90, large D).
func PubMedLike(scale float64) SyntheticConfig {
	return SyntheticConfig{
		D:       imax(50, int(8200000*scale)),
		V:       heapsV(141000, scale),
		K:       80,
		MeanLen: 90,
		Alpha:   0.1,
		Beta:    0.01,
		Seed:    2,
	}
}

// ClueWebLike returns a configuration following the paper's ClueWeb12
// shape (long web documents, T/D ≈ 378, V = 1M at full scale).
func ClueWebLike(scale float64) SyntheticConfig {
	return SyntheticConfig{
		D:       imax(50, int(639000000*scale)),
		V:       heapsV(1000000, scale),
		K:       100,
		MeanLen: 378,
		Alpha:   0.1,
		Beta:    0.01,
		Seed:    3,
	}
}

func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// visitLDADocs runs the LDA generative process — φk ~ Dir(β),
// θd ~ Dir(α), zdn ~ Mult(θd), wdn ~ Mult(φ_zdn) — calling visit with
// each document's tokens in order. The token buffer is reused between
// calls; visitors that keep a document must copy it. The process is
// fully determined by cfg (including Seed), so two walks with the same
// cfg visit identical documents — the property the streaming UCI
// generator's two-pass design relies on. Memory is O(K·V) for the
// topic alias tables plus one document.
func visitLDADocs(cfg SyntheticConfig, visit func(d int, doc []int32)) error {
	if cfg.D <= 0 || cfg.V <= 0 || cfg.K <= 0 || cfg.MeanLen <= 0 {
		return fmt.Errorf("corpus: invalid synthetic config %+v", cfg)
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.1
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 0.01
	}
	r := rng.New(cfg.Seed)

	// Topic-word distributions as alias tables for O(1) word draws.
	phi := make([]*alias.Table, cfg.K)
	buf := make([]float64, cfg.V)
	for k := 0; k < cfg.K; k++ {
		r.Dirichlet(cfg.Beta, buf)
		phi[k] = alias.New(buf)
	}

	theta := make([]float64, cfg.K)
	topicTab := &alias.Table{}
	var doc []int32
	for d := 0; d < cfg.D; d++ {
		r.Dirichlet(cfg.Alpha, theta)
		topicTab.Build(theta)
		n := poisson(r, cfg.MeanLen)
		if n < 1 {
			n = 1
		}
		if cap(doc) < n {
			doc = make([]int32, n)
		}
		doc = doc[:n]
		for i := 0; i < n; i++ {
			k := topicTab.Draw(r)
			doc[i] = int32(phi[k].Draw(r))
		}
		visit(d, doc)
	}
	return nil
}

// GenerateLDA draws a corpus from the LDA generative process.
// Memory is O(K·V + T); for corpora that should never be materialized
// use StreamLDAUCI.
func GenerateLDA(cfg SyntheticConfig) (*Corpus, error) {
	c := &Corpus{V: cfg.V, Docs: make([][]int32, imax(cfg.D, 0))}
	if err := visitLDADocs(cfg, func(d int, doc []int32) {
		c.Docs[d] = append([]int32(nil), doc...)
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// GenerateZipf draws a corpus whose word frequencies follow a Zipf law
// with exponent s (term frequency of rank-r word ∝ 1/r^s). Topics carry
// no semantics; this generator exists for the system-level experiments
// (partitioning, cache behaviour) where only the column-size power law
// matters — the property the paper's Sections 5.2–5.3 analyse.
func GenerateZipf(d, v int, meanLen float64, s float64, seed uint64) *Corpus {
	c := &Corpus{V: v, Docs: make([][]int32, d)}
	visitZipfDocs(d, v, meanLen, s, seed, func(i int, doc []int32) {
		c.Docs[i] = append([]int32(nil), doc...)
	})
	return c
}

// visitZipfDocs is the Zipf generative walk behind GenerateZipf and the
// streaming UCI generator; same reuse/determinism contract as
// visitLDADocs.
func visitZipfDocs(d, v int, meanLen, s float64, seed uint64, visit func(d int, doc []int32)) {
	r := rng.New(seed)
	w := make([]float64, v)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	tab := alias.New(w)
	var doc []int32
	for i := 0; i < d; i++ {
		n := poisson(r, meanLen)
		if n < 1 {
			n = 1
		}
		if cap(doc) < n {
			doc = make([]int32, n)
		}
		doc = doc[:n]
		for j := range doc {
			doc[j] = int32(tab.Draw(r))
		}
		visit(i, doc)
	}
}

// poisson draws a Poisson(mean) variate: Knuth's product method for small
// means, a normal approximation above 60 where Knuth's loop gets slow.
func poisson(r *rng.RNG, mean float64) int {
	if mean > 60 {
		n := int(math.Round(mean + math.Sqrt(mean)*r.Normal()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
