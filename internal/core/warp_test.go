package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

func testCorpus(seed uint64) *corpus.Corpus {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 300, V: 400, K: 8, MeanLen: 50, Alpha: 0.08, Beta: 0.05, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return c
}

func defaultCfg(k int) sampler.Config {
	cfg := sampler.PaperDefaults(k)
	cfg.M = 2
	return cfg
}

func TestNewValidates(t *testing.T) {
	c := testCorpus(1)
	if _, err := New(c, sampler.Config{K: 0, Alpha: 1, Beta: 1, M: 1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(c, sampler.Config{K: 4, Alpha: 1, Beta: 1, M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	bad := &corpus.Corpus{V: 2, Docs: [][]int32{{5}}}
	if _, err := New(bad, defaultCfg(4)); err == nil {
		t.Error("invalid corpus accepted")
	}
}

func TestAssignmentsShapeAndRange(t *testing.T) {
	c := testCorpus(2)
	w, err := New(c, defaultCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 3; it++ {
		z := w.Assignments()
		if len(z) != len(c.Docs) {
			t.Fatalf("assignments for %d docs, want %d", len(z), len(c.Docs))
		}
		for d := range z {
			if len(z[d]) != len(c.Docs[d]) {
				t.Fatalf("doc %d: %d assignments for %d tokens", d, len(z[d]), len(c.Docs[d]))
			}
			for _, k := range z[d] {
				if k < 0 || int(k) >= w.K() {
					t.Fatalf("topic %d out of range", k)
				}
			}
		}
		w.Iterate()
	}
}

// countsFromAssignments recomputes ck from scratch.
func countsFromAssignments(z [][]int32, k int) []int32 {
	ck := make([]int32, k)
	for _, zd := range z {
		for _, t := range zd {
			ck[t]++
		}
	}
	return ck
}

func TestGlobalCountsConsistent(t *testing.T) {
	c := testCorpus(3)
	w, err := New(c, defaultCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 4; it++ {
		w.Iterate()
		want := countsFromAssignments(w.Assignments(), 8)
		if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: ck %v, want %v", it, got, want)
		}
	}
}

func TestTokenCountConserved(t *testing.T) {
	c := testCorpus(4)
	w, err := New(c, defaultCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	total := int32(c.NumTokens())
	for it := 0; it < 5; it++ {
		w.Iterate()
		var sum int32
		for _, v := range w.GlobalCounts() {
			sum += v
		}
		if sum != total {
			t.Fatalf("iteration %d: ck sums to %d, want %d", it, sum, total)
		}
	}
}

func TestLikelihoodImproves(t *testing.T) {
	c := testCorpus(5)
	cfg := defaultCfg(8)
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 30; i++ {
		w.Iterate()
	}
	after := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("log-likelihood did not improve: %.1f -> %.1f", before, after)
	}
	// It must improve substantially, not cosmetically: at least 5% of the
	// gap between random init and zero.
	if after-before < 0.05*math.Abs(before)*0.1 {
		t.Fatalf("improvement %.1f suspiciously small from %.1f", after-before, before)
	}
}

func TestRecoversPlantedStructure(t *testing.T) {
	// Two disjoint word blocks. A correct sampler must assign the blocks
	// to different topics almost perfectly.
	c := &corpus.Corpus{V: 40, Docs: make([][]int32, 60)}
	for d := range c.Docs {
		doc := make([]int32, 40)
		for n := range doc {
			if d%2 == 0 {
				doc[n] = int32(n % 20)
			} else {
				doc[n] = int32(20 + n%20)
			}
		}
		c.Docs[d] = doc
	}
	cfg := sampler.Config{K: 2, Alpha: 0.5, Beta: 0.1, M: 2, Seed: 7}
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		w.Iterate()
	}
	z := w.Assignments()
	agree := 0
	for d := range z {
		// Majority topic of the doc must be uniform within doc class.
		count := [2]int{}
		for _, k := range z[d] {
			count[k]++
		}
		maj := 0
		if count[1] > count[0] {
			maj = 1
		}
		purity := float64(count[maj]) / float64(len(z[d]))
		if purity > 0.9 {
			agree++
		}
	}
	if agree < 50 {
		t.Fatalf("only %d/60 documents converged to a pure topic", agree)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	c := testCorpus(6)
	cfg := defaultCfg(8)
	a, _ := New(c, cfg)
	b, _ := New(c, cfg)
	for i := 0; i < 3; i++ {
		a.Iterate()
		b.Iterate()
	}
	if !reflect.DeepEqual(a.Assignments(), b.Assignments()) {
		t.Fatal("same seed, different trajectories")
	}
	cfg2 := cfg
	cfg2.Seed++
	d, _ := New(c, cfg2)
	d.Iterate()
	a2, _ := New(c, cfg)
	a2.Iterate()
	if reflect.DeepEqual(d.Assignments(), a2.Assignments()) {
		t.Fatal("different seeds, identical trajectory")
	}
}

func TestParallelMatchesInvariants(t *testing.T) {
	c := testCorpus(8)
	cfg := defaultCfg(8)
	cfg.Threads = 4
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 20; i++ {
		w.Iterate()
	}
	want := countsFromAssignments(w.Assignments(), cfg.K)
	if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel ck inconsistent: %v vs %v", got, want)
	}
	after := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("parallel run did not converge: %.1f -> %.1f", before, after)
	}
}

func TestDenseAliasAblationConverges(t *testing.T) {
	c := testCorpus(10)
	cfg := defaultCfg(8)
	w, err := NewWithOptions(c, cfg, Options{DisableSparseAlias: true})
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 20; i++ {
		w.Iterate()
	}
	after := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("dense-alias path did not converge: %.1f -> %.1f", before, after)
	}
}

func TestLargeKConverges(t *testing.T) {
	c := testCorpus(11)
	cfg := sampler.PaperDefaults(2048) // more topics than any row has tokens
	cfg.M = 1
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 10; i++ {
		w.Iterate()
	}
	after := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("large-K run did not converge: %.1f -> %.1f", before, after)
	}
	want := countsFromAssignments(w.Assignments(), cfg.K)
	if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatal("large-K ck inconsistent")
	}
}

func TestEmptyDocsHandled(t *testing.T) {
	c := &corpus.Corpus{V: 5, Docs: [][]int32{{}, {1, 2}, {}, {0, 0, 4}, {}}}
	w, err := New(c, defaultCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Iterate()
	}
	z := w.Assignments()
	if len(z[0]) != 0 || len(z[2]) != 0 || len(z[4]) != 0 {
		t.Fatal("empty docs got assignments")
	}
}

func TestContiguousCuts(t *testing.T) {
	cuts := contiguousCuts([]int{5, 5, 5, 5}, 2)
	if !reflect.DeepEqual(cuts, []int{0, 2, 4}) {
		t.Fatalf("cuts = %v", cuts)
	}
	cuts = contiguousCuts([]int{100, 1, 1, 1}, 2)
	if cuts[0] != 0 || cuts[2] != 4 {
		t.Fatalf("cuts = %v", cuts)
	}
	// More parts than items: trailing empty ranges, all indices valid.
	cuts = contiguousCuts([]int{3}, 4)
	if len(cuts) != 5 || cuts[4] != 1 {
		t.Fatalf("cuts = %v", cuts)
	}
}

func BenchmarkIterate(b *testing.B) {
	c := testCorpus(12)
	cfg := defaultCfg(64)
	w, err := New(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tokens := c.NumTokens()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Iterate()
	}
	b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

func TestDocProposalAliasAblationConverges(t *testing.T) {
	c := testCorpus(13)
	cfg := defaultCfg(8)
	w, err := NewWithOptions(c, cfg, Options{DocProposalAlias: true})
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 20; i++ {
		w.Iterate()
	}
	after := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("doc-alias path did not converge: %.1f -> %.1f", before, after)
	}
	want := countsFromAssignments(w.Assignments(), cfg.K)
	if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatal("doc-alias ck inconsistent")
	}
}

func TestShuffledTokensStillRun(t *testing.T) {
	c := testCorpus(14)
	cfg := defaultCfg(8)
	w, err := NewWithOptions(c, cfg, Options{ShuffleTokens: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Iterate()
	}
	// Global counts must still match the assignment multiset.
	want := countsFromAssignments(w.Assignments(), cfg.K)
	if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatal("shuffled ck inconsistent")
	}
}

func TestAsymmetricAlphaConverges(t *testing.T) {
	c := testCorpus(15)
	cfg := sampler.PaperDefaults(8)
	cfg.M = 2
	cfg.AlphaVec = []float64{2, 1, 0.5, 0.5, 0.2, 0.2, 0.1, 0.1}
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.LogJointAsym(c, w.Assignments(), cfg.AlphaVec, cfg.Beta)
	for i := 0; i < 25; i++ {
		w.Iterate()
	}
	after := eval.LogJointAsym(c, w.Assignments(), cfg.AlphaVec, cfg.Beta)
	if after <= before {
		t.Fatalf("asymmetric run did not converge: %.1f -> %.1f", before, after)
	}
	want := countsFromAssignments(w.Assignments(), cfg.K)
	if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatal("asymmetric ck inconsistent")
	}
}

func TestAsymmetricAlphaBiasesTopics(t *testing.T) {
	// An extreme prior: topic 0 gets 100x the prior mass of the rest. On
	// a structureless corpus topic 0 must end up clearly over-represented.
	c := corpus.GenerateZipf(200, 300, 40, 0.5, 16)
	cfg := sampler.PaperDefaults(4)
	cfg.M = 2
	cfg.AlphaVec = []float64{10, 0.1, 0.1, 0.1}
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		w.Iterate()
	}
	ck := w.GlobalCounts()
	total := int32(c.NumTokens())
	if float64(ck[0]) < 0.4*float64(total) {
		t.Fatalf("heavy-prior topic holds only %d/%d tokens", ck[0], total)
	}
}

func TestAlphaVecValidation(t *testing.T) {
	c := testCorpus(17)
	cfg := sampler.PaperDefaults(4)
	cfg.AlphaVec = []float64{1, 1} // wrong length
	if _, err := New(c, cfg); err == nil {
		t.Fatal("wrong-length AlphaVec accepted")
	}
	cfg.AlphaVec = []float64{1, 1, -1, 1}
	if _, err := New(c, cfg); err == nil {
		t.Fatal("negative AlphaVec accepted")
	}
}

func TestIntraWordParallelism(t *testing.T) {
	// A corpus with one extremely frequent word (Lw > max(K, 1024)) plus a
	// long tail, run with several threads: the heavy column must take the
	// cooperative path and the sampler must stay consistent and converge.
	c := &corpus.Corpus{V: 50, Docs: make([][]int32, 200)}
	for d := range c.Docs {
		doc := make([]int32, 30)
		for n := range doc {
			if n < 10 {
				doc[n] = 0 // word 0 appears 2000 times total
			} else {
				doc[n] = int32(1 + (d+n)%49)
			}
		}
		c.Docs[d] = doc
	}
	cfg := defaultCfg(8)
	cfg.Threads = 4
	w, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.heavyCols) != 1 || w.heavyCols[0] != 0 {
		t.Fatalf("heavy columns = %v, want [0]", w.heavyCols)
	}
	before := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	for i := 0; i < 20; i++ {
		w.Iterate()
	}
	after := eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
	if after <= before {
		t.Fatalf("intra-word path did not converge: %.1f -> %.1f", before, after)
	}
	want := countsFromAssignments(w.Assignments(), cfg.K)
	if got := w.GlobalCounts(); !reflect.DeepEqual(got, want) {
		t.Fatal("intra-word ck inconsistent")
	}
	// Disabled variant must not classify anything heavy.
	w2, err := NewWithOptions(c, cfg, Options{DisableIntraWord: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.heavyCols) != 0 {
		t.Fatal("DisableIntraWord ignored")
	}
}

// resumePair runs the checkpoint/resume contract for one configuration:
// an uninterrupted 2n-iteration run against an n-iteration run whose
// state is moved into a fresh sampler that runs the remaining n.
func resumePair(t *testing.T, c *corpus.Corpus, cfg sampler.Config, n int) {
	t.Helper()
	mk := func() *Warp {
		w, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	full, half, fresh := mk(), mk(), mk()
	for i := 0; i < 2*n; i++ {
		full.Iterate()
	}
	for i := 0; i < n; i++ {
		half.Iterate()
	}
	var buf bytes.Buffer
	if err := half.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.GlobalCounts(), half.GlobalCounts()) {
		t.Fatal("global counts differ immediately after restore")
	}
	for i := 0; i < n; i++ {
		fresh.Iterate()
	}
	if !reflect.DeepEqual(fresh.Assignments(), full.Assignments()) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
	if !reflect.DeepEqual(fresh.GlobalCounts(), full.GlobalCounts()) {
		t.Fatal("resumed global counts diverged")
	}
}

func TestStateResumeBitIdenticalSerial(t *testing.T) {
	resumePair(t, testCorpus(20), defaultCfg(8), 4)
}

func TestStateResumeBitIdenticalThreaded(t *testing.T) {
	cfg := defaultCfg(8)
	cfg.Threads = 3
	resumePair(t, testCorpus(21), cfg, 4)
}

func TestStateResumeBitIdenticalLargeK(t *testing.T) {
	cfg := defaultCfg(1536) // word 0 of the corpus (1920 tokens) is still heavy
	cfg.Threads = 3
	resumePair(t, heavyTailCorpus(), cfg, 3)
}

func TestStateResumeBitIdenticalAsymmetricAlpha(t *testing.T) {
	cfg := defaultCfg(6)
	alphas := make([]float64, cfg.K)
	for k := range alphas {
		alphas[k] = 0.05 * float64(k+1)
	}
	cfg.AlphaVec = alphas
	resumePair(t, testCorpus(22), cfg, 3)
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	c := testCorpus(23)
	cfg := defaultCfg(8)
	donor, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	donor.Iterate()
	var buf bytes.Buffer
	if err := donor.StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	badCk := append([]byte(nil), blob...)
	// Flip an assignment byte so ck no longer matches the histogram: the
	// payload section starts right after tag(5) + workers(8) + len(8).
	badCk[5+8+8] ^= 1

	cases := []struct {
		name string
		blob []byte
		cfg  sampler.Config
	}{
		{"truncated", blob[:len(blob)-9], cfg},
		{"bad tag", append([]byte("xxxx\x01"), blob[5:]...), cfg},
		{"count mismatch", badCk, cfg},
		{"wrong K", blob, func() sampler.Config { c2 := cfg; c2.K = 9; return c2 }()},
		{"wrong threads", blob, func() sampler.Config { c2 := cfg; c2.Threads = 4; return c2 }()},
	}
	for _, tc := range cases {
		target, err := New(c, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := sampler.CopyAssignments(target.Assignments())
		if err := target.RestoreFrom(bytes.NewReader(tc.blob)); err == nil {
			t.Errorf("%s: corrupt state accepted", tc.name)
			continue
		}
		if !reflect.DeepEqual(before, target.Assignments()) {
			t.Errorf("%s: failed restore mutated assignments", tc.name)
		}
		target.Iterate() // still usable
	}
}
