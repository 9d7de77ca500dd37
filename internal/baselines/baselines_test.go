package baselines

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

func testCorpus(seed uint64) *corpus.Corpus {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 150, V: 200, K: 6, MeanLen: 40, Alpha: 0.08, Beta: 0.05, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return c
}

func testCfg(k int) sampler.Config {
	cfg := sampler.PaperDefaults(k)
	cfg.M = 2
	return cfg
}

// every constructor, behind one signature for table-driven tests.
type consistencyChecker interface {
	sampler.Sampler
	StateTo(w io.Writer) error
	RestoreFrom(r io.Reader) error
	check() error
}

func (g *CGS) check() error       { return g.checkConsistent() }
func (s *SparseLDA) check() error { return s.checkConsistent() }
func (a *AliasLDA) check() error  { return a.checkConsistent() }
func (f *FPlusLDA) check() error  { return f.checkConsistent() }
func (l *LightLDA) check() error  { return l.checkConsistent() }

func allSamplers(t *testing.T, c *corpus.Corpus, cfg sampler.Config) map[string]consistencyChecker {
	t.Helper()
	out := map[string]consistencyChecker{}
	if g, err := NewCGS(c, cfg); err != nil {
		t.Fatal(err)
	} else {
		out["cgs"] = g
	}
	if s, err := NewSparseLDA(c, cfg); err != nil {
		t.Fatal(err)
	} else {
		out["sparselda"] = s
	}
	if a, err := NewAliasLDA(c, cfg); err != nil {
		t.Fatal(err)
	} else {
		out["aliaslda"] = a
	}
	if f, err := NewFPlusLDA(c, cfg); err != nil {
		t.Fatal(err)
	} else {
		out["flda"] = f
	}
	if l, err := NewLightLDA(c, cfg, LightLDAOptions{}); err != nil {
		t.Fatal(err)
	} else {
		out["lightlda"] = l
	}
	return out
}

func TestCountsStayConsistent(t *testing.T) {
	c := testCorpus(1)
	for name, s := range allSamplers(t, c, testCfg(6)) {
		for it := 0; it < 3; it++ {
			s.Iterate()
			if err := s.check(); err != nil {
				t.Errorf("%s iteration %d: %v", name, it, err)
				break
			}
		}
	}
}

func TestAssignmentsInRange(t *testing.T) {
	c := testCorpus(2)
	cfg := testCfg(6)
	for name, s := range allSamplers(t, c, cfg) {
		s.Iterate()
		z := s.Assignments()
		if len(z) != len(c.Docs) {
			t.Fatalf("%s: wrong doc count", name)
		}
		for d := range z {
			if len(z[d]) != len(c.Docs[d]) {
				t.Fatalf("%s: doc %d length mismatch", name, d)
			}
			for _, k := range z[d] {
				if k < 0 || int(k) >= cfg.K {
					t.Fatalf("%s: topic %d out of range", name, k)
				}
			}
		}
	}
}

func TestAllConverge(t *testing.T) {
	c := testCorpus(3)
	cfg := testCfg(6)
	for name, s := range allSamplers(t, c, cfg) {
		before := eval.LogJoint(c, s.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
		for i := 0; i < 15; i++ {
			s.Iterate()
		}
		after := eval.LogJoint(c, s.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
		if after <= before {
			t.Errorf("%s: log-likelihood %.1f -> %.1f (no improvement)", name, before, after)
		}
	}
}

// All samplers target (nearly) the same posterior: after enough burn-in
// they should land in the same likelihood band. This is the paper's
// Figure 5 column 1 claim — same final quality.
func TestConvergeToSameBand(t *testing.T) {
	c := testCorpus(4)
	cfg := testCfg(6)
	finals := map[string]float64{}
	for name, s := range allSamplers(t, c, cfg) {
		for i := 0; i < 40; i++ {
			s.Iterate()
		}
		finals[name] = eval.LogJoint(c, s.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	}
	ref := finals["cgs"]
	for name, ll := range finals {
		if math.Abs(ll-ref) > 0.02*math.Abs(ref) {
			t.Errorf("%s final LL %.1f more than 2%% from CGS %.1f", name, ll, ref)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	c := testCorpus(5)
	cfg := testCfg(6)
	a := allSamplers(t, c, cfg)
	b := allSamplers(t, c, cfg)
	for name := range a {
		a[name].Iterate()
		b[name].Iterate()
		if !reflect.DeepEqual(a[name].Assignments(), b[name].Assignments()) {
			t.Errorf("%s: same seed, different trajectory", name)
		}
	}
}

func TestLightLDAVariantsConsistentAndConverge(t *testing.T) {
	c := testCorpus(6)
	cfg := testCfg(6)
	variants := []LightLDAOptions{
		{},
		{DelayWordCounts: true},
		{DelayWordCounts: true, DelayDocCounts: true},
		{DelayWordCounts: true, DelayDocCounts: true, SimpleProposal: true},
	}
	names := map[string]bool{}
	for _, opt := range variants {
		l, err := NewLightLDA(c, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if names[l.Name()] {
			t.Fatalf("duplicate variant tag %q", l.Name())
		}
		names[l.Name()] = true
		before := eval.LogJoint(c, l.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
		for i := 0; i < 15; i++ {
			l.Iterate()
			if err := l.checkConsistent(); err != nil {
				t.Fatalf("%s: %v", l.Name(), err)
			}
		}
		after := eval.LogJoint(c, l.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
		if after <= before {
			t.Errorf("%s: no improvement %.1f -> %.1f", l.Name(), before, after)
		}
	}
	for _, want := range []string{"LightLDA", "LightLDA+DW", "LightLDA+DW+DD", "LightLDA+DW+DD+SP"} {
		if !names[want] {
			t.Errorf("missing variant %s (have %v)", want, names)
		}
	}
}

func TestSingleTokenDocsAndWords(t *testing.T) {
	// Pathological corpus: singleton docs and hapax words.
	c := &corpus.Corpus{V: 6, Docs: [][]int32{{0}, {1}, {2, 2}, {3, 4, 5}, {}}}
	cfg := testCfg(3)
	for name, s := range allSamplers(t, c, cfg) {
		for i := 0; i < 5; i++ {
			s.Iterate()
			if err := s.check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	c := testCorpus(7)
	bad := sampler.Config{K: 0, Alpha: 1, Beta: 1}
	if _, err := NewCGS(c, bad); err == nil {
		t.Error("CGS accepted K=0")
	}
	if _, err := NewLightLDA(c, bad, LightLDAOptions{}); err == nil {
		t.Error("LightLDA accepted K=0")
	}
}

func TestStateCheckDetectsCorruption(t *testing.T) {
	c := testCorpus(8)
	g, err := NewCGS(c, testCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	g.cd[0] += 5
	if err := g.checkConsistent(); err == nil {
		t.Fatal("corrupted cd not detected")
	}
}

func TestRemovePanicsBelowZero(t *testing.T) {
	c := &corpus.Corpus{V: 2, Docs: [][]int32{{0}}}
	st, err := newState(c, testCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	other := 1 - st.z[0][0]
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	st.remove(0, 0, other)
}

func BenchmarkCGSIterate(b *testing.B)       { benchIterate(b, "cgs") }
func BenchmarkSparseLDAIterate(b *testing.B) { benchIterate(b, "sparselda") }
func BenchmarkAliasLDAIterate(b *testing.B)  { benchIterate(b, "aliaslda") }
func BenchmarkFLDAIterate(b *testing.B)      { benchIterate(b, "flda") }
func BenchmarkLightLDAIterate(b *testing.B)  { benchIterate(b, "lightlda") }

func benchIterate(b *testing.B, name string) {
	c := testCorpus(9)
	t := &testing.T{}
	s := allSamplers(t, c, testCfg(32))[name]
	tokens := c.NumTokens()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Iterate()
	}
	b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// TestStateResumeBitIdentical is the checkpoint/resume contract for
// every baseline: N iterations, StateTo, RestoreFrom into a *fresh*
// sampler, N more iterations — and the trajectory must match an
// uninterrupted 2N-iteration run token for token.
func TestStateResumeBitIdentical(t *testing.T) {
	c := testCorpus(9)
	cfg := testCfg(6)
	full := allSamplers(t, c, cfg)
	half := allSamplers(t, c, cfg)
	fresh := allSamplers(t, c, cfg)
	const n = 4
	for name, s := range full {
		for i := 0; i < 2*n; i++ {
			s.Iterate()
		}
		h := half[name]
		for i := 0; i < n; i++ {
			h.Iterate()
		}
		var buf bytes.Buffer
		if err := h.StateTo(&buf); err != nil {
			t.Fatalf("%s: StateTo: %v", name, err)
		}
		f := fresh[name]
		if err := f.RestoreFrom(&buf); err != nil {
			t.Fatalf("%s: RestoreFrom: %v", name, err)
		}
		if err := f.check(); err != nil {
			t.Fatalf("%s: counts inconsistent after restore: %v", name, err)
		}
		for i := 0; i < n; i++ {
			f.Iterate()
		}
		if !reflect.DeepEqual(f.Assignments(), s.Assignments()) {
			t.Errorf("%s: resumed run diverged from uninterrupted run", name)
		}
	}
}

// The LightLDA ablation variants carry extra state (frozen snapshots,
// stale tables on different refresh schedules); each must resume
// bit-identically too.
func TestLightLDAVariantsResumeBitIdentical(t *testing.T) {
	c := testCorpus(10)
	cfg := testCfg(6)
	variants := []LightLDAOptions{
		{},
		{RefreshTokens: 97}, // stock with a short staleness budget
		{DelayWordCounts: true},
		{DelayWordCounts: true, DelayDocCounts: true},
		{DelayWordCounts: true, DelayDocCounts: true, SimpleProposal: true},
	}
	const n = 3
	for _, opt := range variants {
		mk := func() *LightLDA {
			l, err := NewLightLDA(c, cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		s, h, f := mk(), mk(), mk()
		for i := 0; i < 2*n; i++ {
			s.Iterate()
		}
		for i := 0; i < n; i++ {
			h.Iterate()
		}
		var buf bytes.Buffer
		if err := h.StateTo(&buf); err != nil {
			t.Fatalf("%s: StateTo: %v", h.Name(), err)
		}
		if err := f.RestoreFrom(&buf); err != nil {
			t.Fatalf("%s: RestoreFrom: %v", f.Name(), err)
		}
		for i := 0; i < n; i++ {
			f.Iterate()
		}
		if !reflect.DeepEqual(f.Assignments(), s.Assignments()) {
			t.Errorf("%s (refresh %d): resumed run diverged", s.Name(), opt.RefreshTokens)
		}
	}
}

// A corrupt or mismatched state blob must fail cleanly: error returned,
// sampler untouched and still consistent.
func TestRestoreRejectsCorruptState(t *testing.T) {
	c := testCorpus(11)
	cfg := testCfg(6)
	donor := allSamplers(t, c, cfg)
	for name, s := range donor {
		s.Iterate()
		var buf bytes.Buffer
		if err := s.StateTo(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob := buf.Bytes()

		for _, tc := range []struct {
			name string
			blob []byte
			into func() consistencyChecker
		}{
			{"truncated", blob[:len(blob)/2], func() consistencyChecker { return allSamplers(t, c, cfg)[name] }},
			{"wrong tag", append([]byte("xxxx\x01"), blob[5:]...), func() consistencyChecker { return allSamplers(t, c, cfg)[name] }},
			{"wrong K", blob, func() consistencyChecker { return allSamplers(t, c, testCfg(7))[name] }},
		} {
			target := tc.into()
			if err := target.RestoreFrom(bytes.NewReader(tc.blob)); err == nil {
				t.Errorf("%s/%s: corrupt state accepted", name, tc.name)
				continue
			}
			if err := target.check(); err != nil {
				t.Errorf("%s/%s: sampler mutated by failed restore: %v", name, tc.name, err)
			}
			target.Iterate() // must still be usable
			if err := target.check(); err != nil {
				t.Errorf("%s/%s: sampler unusable after failed restore: %v", name, tc.name, err)
			}
		}
	}
}

// Float state (stale densities, proposal weights) must be validated on
// restore too: a CRC-clean blob carrying NaN or non-positive masses
// would silently skew every draw.
func TestRestoreRejectsCorruptFloatState(t *testing.T) {
	c := testCorpus(12)
	cfg := testCfg(6)

	t.Run("aliaslda stale mass", func(t *testing.T) {
		a, err := NewAliasLDA(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Iterate()
		for w := range a.staleSum {
			if a.staleQ[w] != nil {
				a.staleSum[w] = math.NaN()
				break
			}
		}
		var buf bytes.Buffer
		if err := a.StateTo(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewAliasLDA(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreFrom(&buf); err == nil {
			t.Fatal("NaN stale mass accepted")
		}
	})
	t.Run("lightlda proposal weight", func(t *testing.T) {
		l, err := NewLightLDA(c, cfg, LightLDAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		l.Iterate()
		for w := range l.words {
			if len(l.words[w].weights) > 0 {
				l.words[w].weights[0] = -1
				break
			}
		}
		var buf bytes.Buffer
		if err := l.StateTo(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewLightLDA(c, cfg, LightLDAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreFrom(&buf); err == nil {
			t.Fatal("negative proposal weight accepted")
		}
	})
}
