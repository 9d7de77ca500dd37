package core

import (
	"fmt"
	"math"
	"math/big"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/rng"
	"warplda/internal/sampler"
	"warplda/internal/tcount"
)

// The chain kernel decides "accept" without dividing. On random counts,
// global counts, priors and generator states it must take exactly the
// decision of Eq. 7 — accept iff π ≥ 1 or u < π, with π evaluated here
// in 200-bit arithmetic — for both row representations, and must count
// the outcome, recount it into next, and consume one generator word
// only when π < 1. Cases within 1e-9 of a tie are skipped.
func TestChainAgreesWithEq7(t *testing.T) {
	const k = 16
	src := rng.New(2024)
	decided := 0
	for trial := 0; trial < 20000; trial++ {
		counts := make([]int32, k)
		prior, ckb := make([]float64, k), make([]float64, k)
		betaBar := 0.01 + 100*src.Float64()
		for i := range counts {
			if src.Intn(3) > 0 {
				counts[i] = int32(src.Intn(1 << uint(1+src.Intn(12))))
			}
			prior[i] = 0.001 + 5*src.Float64()
			ckb[i] = float64(src.Intn(1<<uint(1+src.Intn(20)))) + betaBar
		}
		s, tt := int32(src.Intn(k)), int32(src.Intn(k))
		if s == tt {
			continue
		}
		num := new(big.Float).SetPrec(200).Mul(big.NewFloat(float64(counts[tt])+prior[tt]), big.NewFloat(ckb[s]))
		den := new(big.Float).SetPrec(200).Mul(big.NewFloat(float64(counts[s])+prior[s]), big.NewFloat(ckb[tt]))
		pi, _ := new(big.Float).Quo(num, den).Float64()

		seed := src.Uint64()
		u := rng.Unit(rng.New(seed).Uint64())
		if math.Abs(u-pi) < 1e-9*pi || math.Abs(pi-1) < 1e-9 {
			continue
		}
		decided++
		want := pi >= 1 || u < pi

		hash := tcount.NewHash(k)
		for topic, c := range counts {
			for ; c > 0; c-- {
				hash.Incr(int32(topic))
			}
		}
		for name, cur := range map[string]countRow{"dense": {c: counts}, "hash": {h: hash}} {
			data := []int32{s, tt}
			next := countRow{c: make([]int32, k), touched: make([]int32, 0, k+1)}
			r := rng.New(seed)
			proposed, accepted := chain(data, nil, 2, cur, &next, prior, ckb, r)
			got := data[0] == tt
			if got != want || (data[0] != s && data[0] != tt) {
				t.Fatalf("%s: π=%g u=%g: assignment %d→%d, want accept=%v", name, pi, u, s, data[0], want)
			}
			if proposed != 1 || (accepted == 1) != want {
				t.Fatalf("%s: proposed=%d accepted=%d, want 1 and %v", name, proposed, accepted, want)
			}
			if next.c[data[0]] != 1 || !reflect.DeepEqual(next.touched, []int32{data[0]}) {
				t.Fatalf("%s: recount %v touched %v after assigning %d", name, next.c, next.touched, data[0])
			}
			fresh := rng.New(seed)
			if pi < 1 {
				fresh.Uint64()
			}
			if r.State() != fresh.State() {
				t.Fatalf("%s: π=%g consumed the wrong number of generator words", name, pi)
			}
		}
	}
	if decided < 15000 {
		t.Fatalf("only %d of 20000 trials were away from ties", decided)
	}
}

// proposalTally accumulates, over groups of tokens that share one
// proposal distribution, how often each outcome class was proposed and
// the mean and variance that count should have. The classes are the K
// topics and, to see a wrong split between the count part and the
// smoothing part (which a per-topic total pooled over many groups
// cannot), the topic's count in its own group: 0, 1, 2, 3 or more.
type proposalTally struct {
	k                        int
	observed, mean, variance []float64
}

const countLevels = 4

func newProposalTally(k int) *proposalTally {
	n := k + countLevels
	return &proposalTally{k, make([]float64, n), make([]float64, n), make([]float64, n)}
}

func (pt *proposalTally) level(count int32) int { return pt.k + int(min(count, countLevels-1)) }

// add records one group: counts are the group's topic counts, prior its
// smoothing vector, proposals every proposal drawn for its tokens.
func (pt *proposalTally) add(counts []int32, prior []float64, proposals []int32) {
	var z float64
	for k, c := range counts {
		z += float64(c) + prior[k]
	}
	n := float64(len(proposals))
	levelP := make([]float64, countLevels)
	for k, c := range counts {
		p := (float64(c) + prior[k]) / z
		pt.mean[k] += n * p
		pt.variance[k] += n * p * (1 - p)
		levelP[pt.level(c)-pt.k] += p
	}
	for l, p := range levelP {
		pt.mean[pt.k+l] += n * p
		pt.variance[pt.k+l] += n * p * (1 - p)
	}
	for _, t := range proposals {
		pt.observed[t]++
		pt.observed[pt.level(counts[t])]++
	}
}

func (pt *proposalTally) check(t *testing.T, what string) {
	t.Helper()
	for i := range pt.mean {
		if d := math.Abs(pt.observed[i] - pt.mean[i]); d > 5*math.Sqrt(pt.variance[i])+3 {
			class := fmt.Sprintf("topic %d", i)
			if i >= pt.k {
				class = fmt.Sprintf("topics counted %d(+) times in their group", i-pt.k)
			}
			t.Errorf("%s: %s proposed %.0f times, want %.1f ± %.1f", what, class, pt.observed[i], pt.mean[i], math.Sqrt(pt.variance[i]))
		}
	}
}

// After a word phase every token's pending proposals must be draws from
// q^word ∝ C_wk + β of its word, and after a doc phase from
// q^doc ∝ C_dk + α_k of its document, with the counts those of the
// assignments the phase left behind. Mixing long and short documents
// makes both the count part and the smoothing part carry real mass; the
// cases cover both row representations, the asymmetric prior, the
// proposal ablations and the staged heavy path.
func TestProposalsFollowTheirDistributions(t *testing.T) {
	c := &corpus.Corpus{V: 40}
	for d := 0; d < 400; d++ {
		l := 6
		if d%40 == 0 {
			l = 600
		}
		doc := make([]int32, l)
		for n := range doc {
			doc[n] = int32((d*7 + n*n) % (3 + d%38)) // low word ids are frequent
		}
		c.Docs = append(c.Docs, doc)
	}
	const k = 6
	alphaVec := []float64{0.05, 0.2, 0.5, 1, 2, 4}
	cases := []struct {
		name     string
		opts     Options
		alphaVec []float64
		threads  int
	}{
		{name: "dense"},
		{name: "hash", opts: Options{ForceHash: true}},
		{name: "alphavec", alphaVec: alphaVec},
		{name: "dense-alias", opts: Options{DisableSparseAlias: true}},
		{name: "doc-alias", opts: Options{DocProposalAlias: true}},
		{name: "doc-alias-alphavec", opts: Options{DocProposalAlias: true}, alphaVec: alphaVec},
		{name: "heavy", threads: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sampler.Config{K: k, Alpha: 0.7, Beta: 2, M: 6, Seed: 5, Threads: tc.threads, AlphaVec: tc.alphaVec}
			w, err := NewWithOptions(c, cfg, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if (tc.threads > 1) != (len(w.heavyCols) > 0) {
				t.Fatalf("heavy columns %v with %d threads", w.heavyCols, tc.threads)
			}
			w.Iterate()
			w.Iterate()

			w.heavyPhase()
			w.wordPhase()
			word := newProposalTally(k)
			for col := 0; col < c.V; col++ {
				word.add(groupOf(w.m.Column(col).Payload(), nil, w.m.Stride, w.betas))
			}
			word.check(t, "word phase")

			w.docPhase()
			doc := newProposalTally(k)
			for row := range c.Docs {
				doc.add(groupOf(w.m.Payloads(), w.m.RowOf(row).Entries(), w.m.Stride, w.alphas))
			}
			doc.check(t, "doc phase")
			w.merge()
		})
	}
}

// groupOf splits a run of entries into its assignment counts and its
// pending proposals.
func groupOf(data, idx []int32, stride int, prior []float64) ([]int32, []float64, []int32) {
	counts := make([]int32, len(prior))
	var proposals []int32
	for i, n := 0, entries(data, idx, stride); i < n; i++ {
		e := data[entryAt(idx, i)*stride:][:stride]
		counts[e[0]]++
		proposals = append(proposals, e[1:]...)
	}
	return counts, prior, proposals
}

// heavyMixCorpus has one word heavy enough for the staged path at
// Threads > 1 (Lw > max(K, 1024)), a long tail, and empty documents.
func heavyMixCorpus() *corpus.Corpus {
	c := heavyTailCorpus()
	c.Docs = append(c.Docs, nil, []int32{3}, nil)
	return c
}

// After every Iterate, whatever the count-row representation, prior,
// ablation option or thread count, the global counts must be the
// histogram of the assignments and account for every token, and the
// pass statistics must describe the pass.
func TestIterateKeepsCountsConsistent(t *testing.T) {
	c := heavyMixCorpus()
	total := int32(c.NumTokens())
	alphaVec := make([]float64, 12)
	for k := range alphaVec {
		alphaVec[k] = 0.05 * float64(k+1)
	}
	cases := []struct {
		name     string
		opts     Options
		alphaVec []float64
	}{
		{name: "dense"},
		{name: "hash", opts: Options{ForceHash: true}},
		{name: "hash-by-threshold", opts: Options{DenseThreshold: 4}},
		{name: "alphavec", alphaVec: alphaVec},
		{name: "dense-alias", opts: Options{DisableSparseAlias: true}},
		{name: "doc-alias", opts: Options{DocProposalAlias: true}},
		{name: "doc-alias-hash-alphavec", opts: Options{DocProposalAlias: true, ForceHash: true}, alphaVec: alphaVec},
		{name: "shuffled", opts: Options{ShuffleTokens: true}},
		{name: "no-intra-word", opts: Options{DisableIntraWord: true}},
	}
	for _, tc := range cases {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/threads=%d", tc.name, threads), func(t *testing.T) {
				cfg := defaultCfg(12)
				cfg.Threads = threads
				cfg.AlphaVec = tc.alphaVec
				w, err := NewWithOptions(c, cfg, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				wantHeavy := 0
				if threads > 1 && !tc.opts.DisableIntraWord {
					wantHeavy = 1
				}
				for it := 0; it < 6; it++ {
					w.Iterate()
					got := w.GlobalCounts()
					if want := countsFromAssignments(w.Assignments(), cfg.K); !reflect.DeepEqual(got, want) {
						t.Fatalf("iteration %d: global counts %v, assignment histogram %v", it, got, want)
					}
					var sum int32
					for _, v := range got {
						sum += v
					}
					if sum != total {
						t.Fatalf("iteration %d: counts sum to %d, corpus has %d tokens", it, sum, total)
					}
					// The first word phase finds every proposal equal to its
					// token's assignment (New's initialization), so it proposes
					// nothing; every later phase must propose and accept.
					ps := w.PassStats()
					limit := int64(cfg.M) * int64(total)
					plausible := func(proposals, accepts int64) bool {
						return 0 < accepts && accepts <= proposals && proposals <= limit
					}
					if ps.HeavyColumns != wantHeavy || !plausible(ps.DocProposals, ps.DocAccepts) ||
						(it == 0 && ps.WordProposals != 0) || (it > 0 && !plausible(ps.WordProposals, ps.WordAccepts)) {
						t.Fatalf("iteration %d: implausible pass stats %+v (M·T = %d, heavy columns want %d)", it, ps, limit, wantHeavy)
					}
				}
			})
		}
	}
}

// The serial pass must not allocate once its scratch has grown: every
// buffer the kernels use belongs to the worker.
func TestSerialIterateDoesNotAllocate(t *testing.T) {
	c := testCorpus(21)
	for name, opts := range map[string]Options{"dense": {}, "hash": {ForceHash: true}} {
		w, err := NewWithOptions(c, defaultCfg(16), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			w.Iterate()
		}
		if allocs := testing.AllocsPerRun(5, w.Iterate); allocs != 0 {
			t.Errorf("%s: Iterate allocates %v times per pass in steady state", name, allocs)
		}
	}
}
