package warplda

import (
	"bytes"
	"math"
	"testing"

	"warplda/internal/eval"
)

func apiCorpus(t testing.TB) *Corpus {
	c, err := GenerateLDA(SyntheticConfig{D: 120, V: 150, K: 5, MeanLen: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewSamplerAllAlgorithms(t *testing.T) {
	c := apiCorpus(t)
	cfg := Defaults(5)
	for _, name := range Algorithms {
		s, err := NewSampler(name, c, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s.Iterate()
		if got := len(s.Assignments()); got != c.NumDocs() {
			t.Fatalf("%s: %d assignment rows", name, got)
		}
	}
	if _, err := NewSampler("bogus", c, cfg); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestTrainProducesModel(t *testing.T) {
	c := apiCorpus(t)
	cfg := Defaults(5)
	m, err := Train(c, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.LogLik >= 0 {
		t.Fatalf("log-likelihood %g not negative", m.LogLik)
	}
	var total int64
	for _, ck := range m.Ck {
		total += ck
	}
	if int(total) != c.NumTokens() {
		t.Fatalf("model counts %d tokens, corpus has %d", total, c.NumTokens())
	}
	// Phi rows sum to ~1 over the vocabulary.
	for k := 0; k < cfg.K; k++ {
		var sum float64
		for w := 0; w < c.V; w++ {
			sum += m.Phi(w, k)
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("phi_%d sums to %g", k, sum)
		}
	}
}

// Two domains, two topics: training must give each domain its own topic.
// β = 0.1 rather than the paper's 0.01: at 0.01 a word whose few tokens
// share a topic almost never leaves it, so the chain keeps whatever
// split its start drew (a mixed-domain mode on about a third of seeds 1–400);
// at 0.1 it finds the separated mode on all of them.
func TestTopWords(t *testing.T) {
	c := FromText([]string{
		"gopher gopher gopher compiler compiler runtime",
		"gopher compiler runtime runtime runtime",
		"market market price price trade trade",
		"market price trade trade market",
	}, TokenizeOptions{})
	cfg := Defaults(2)
	cfg.Alpha, cfg.Beta = 0.5, 0.1
	m, err := Train(c, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	words := m.TopWords(0, 3)
	if len(words) != 3 {
		t.Fatalf("TopWords returned %d words", len(words))
	}
	// Both topics' top words must come from a single domain each.
	tech := map[string]bool{"gopher": true, "compiler": true, "runtime": true}
	for k := 0; k < 2; k++ {
		top := m.TopWords(k, 3)
		techCount := 0
		for _, w := range top {
			if tech[w] {
				techCount++
			}
		}
		if techCount != 0 && techCount != 3 {
			t.Fatalf("topic %d mixes domains: %v", k, top)
		}
	}
}

func TestTopWordsWithoutVocab(t *testing.T) {
	c := apiCorpus(t)
	m, err := Train(c, Defaults(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	w := m.TopWords(0, 2)
	if len(w) != 2 || w[0] == "" {
		t.Fatalf("TopWords = %v", w)
	}
}

func TestDocTopicsSumsToOne(t *testing.T) {
	c := apiCorpus(t)
	m, err := Train(c, Defaults(5), 10)
	if err != nil {
		t.Fatal(err)
	}
	theta := m.DocTopics(c.Docs[0], 5, 1)
	var sum float64
	for _, p := range theta {
		if p < 0 {
			t.Fatalf("negative theta component %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %g", sum)
	}
	// Empty doc: uniform.
	theta = m.DocTopics(nil, 5, 1)
	for _, p := range theta {
		if math.Abs(p-0.2) > 1e-12 {
			t.Fatalf("empty doc theta = %v", theta)
		}
	}
}

func TestTrainSamplerTrace(t *testing.T) {
	c := apiCorpus(t)
	cfg := Defaults(5)
	s, err := NewSampler(WarpLDA, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := TrainSampler(s, c, cfg, 6, 2)
	if len(run.Points) != 3 {
		t.Fatalf("%d eval points, want 3", len(run.Points))
	}
	last := run.Final()
	if last.Iter != 6 || last.LogLik >= 0 || last.TokensSec <= 0 {
		t.Fatalf("bad final point %+v", last)
	}
	if run.Points[0].LogLik >= last.LogLik {
		t.Fatalf("no convergence in trace: %v", run.Points)
	}
	if run.IterToReach(last.LogLik) != last.Iter && run.IterToReach(last.LogLik) == -1 {
		t.Fatal("IterToReach missed its own final point")
	}
	if run.TimeToReach(math.Inf(1)) != -1 {
		t.Fatal("unreachable level reported as reached")
	}
}

func TestUCIRoundTripThroughFacade(t *testing.T) {
	c := apiCorpus(t)
	var buf bytes.Buffer
	if err := WriteUCI(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUCI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTokens() != c.NumTokens() {
		t.Fatal("facade round trip lost tokens")
	}
}

func TestModelCoherence(t *testing.T) {
	// Two planted word blocks: a converged model's topics should score
	// higher coherence than a freshly initialized (random) model's.
	docs := make([]string, 0, 20)
	for i := 0; i < 10; i++ {
		docs = append(docs, "ion atom quark boson ion atom quark boson")
		docs = append(docs, "verse poem rhyme stanza verse poem rhyme stanza")
	}
	c := FromText(docs, TokenizeOptions{})
	cfg := Defaults(2)
	cfg.Alpha = 0.5
	trained, err := Train(c, cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Train(c, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trainedScore, randomScore float64
	for k := 0; k < 2; k++ {
		trainedScore += trained.Coherence(c, k, 4)
		randomScore += random.Coherence(c, k, 4)
	}
	if trainedScore < randomScore {
		t.Fatalf("trained coherence %.3f below random %.3f", trainedScore, randomScore)
	}
}

func TestNewDistributedFacade(t *testing.T) {
	c := apiCorpus(t)
	cfg := Defaults(5)
	s, err := NewDistributed(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := LogLikelihood(c, s, cfg)
	for i := 0; i < 10; i++ {
		s.Iterate()
	}
	if after := LogLikelihood(c, s, cfg); after <= before {
		t.Fatalf("distributed facade did not converge: %.1f -> %.1f", before, after)
	}
}

func TestAsymmetricAlphaThroughFacade(t *testing.T) {
	c := apiCorpus(t)
	cfg := Defaults(5)
	cfg.AlphaVec = []float64{1, 0.5, 0.3, 0.2, 0.1}
	s, err := NewSampler(WarpLDA, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := TrainSampler(s, c, cfg, 10, 5)
	if len(run.Points) != 2 || run.Final().LogLik >= 0 {
		t.Fatalf("asymmetric facade run broken: %+v", run.Points)
	}
	if run.Final().LogLik <= run.Points[0].LogLik {
		t.Fatal("asymmetric facade run did not improve")
	}
}

// TestAlphaVecLogLikelihood: with an α vector, the facade's
// LogLikelihood and a Snapshot's LogLik are the α-vector log joint of
// the sampler's state, not the symmetric one of cfg.Alpha.
func TestAlphaVecLogLikelihood(t *testing.T) {
	c := apiCorpus(t)
	cfg := Defaults(5)
	cfg.AlphaVec = []float64{1, 0.5, 0.3, 0.2, 0.1}
	s, err := NewSampler(WarpLDA, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Iterate()
	}
	want := eval.LogJointAsym(c, s.Assignments(), cfg.AlphaVec, cfg.Beta)
	if sym := eval.LogJoint(c, s.Assignments(), cfg.K, cfg.Alpha, cfg.Beta); sym == want {
		t.Fatal("the α vector does not change the log joint; the test cannot tell the two apart")
	}
	if got := LogLikelihood(c, s, cfg); got != want {
		t.Errorf("LogLikelihood %v, want the α-vector log joint %v", got, want)
	}
	if got := Snapshot(c, s, cfg).LogLik; got != want {
		t.Errorf("Snapshot LogLik %v, want the α-vector log joint %v", got, want)
	}
}

func TestModelDiagnostics(t *testing.T) {
	c := apiCorpus(t)
	m, err := Train(c, Defaults(5), 15)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Diagnostics()
	if len(d) != 5 {
		t.Fatalf("%d diagnostics", len(d))
	}
	var tokens int64
	for _, x := range d {
		tokens += x.Tokens
		if x.EffectiveWords < 1 || x.EffectiveWords > float64(c.V)+1 {
			t.Fatalf("topic %d effective words %.2f", x.Topic, x.EffectiveWords)
		}
		if x.TopShare < 0 || x.TopShare > 1+1e-9 {
			t.Fatalf("topic %d top share %.3f", x.Topic, x.TopShare)
		}
	}
	if int(tokens) != c.NumTokens() {
		t.Fatalf("diagnostics cover %d tokens, corpus has %d", tokens, c.NumTokens())
	}
}
