package core

import (
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/rng"
	"warplda/internal/sampler"
)

// The chain kernel decides "accept" without dividing and without a
// branch. On random counts, global counts, priors and generator states
// it must take exactly the decision of Eq. 7 — accept iff π ≥ 1 or
// u < π, with π evaluated here in 200-bit arithmetic — at small and at
// large K, count the outcome, recount it into next, and consume exactly
// one generator word per MH step, whatever π. A proposal equal to the
// state reads its word too and changes nothing. Cases within 1e-9 of a
// tie are skipped. (A step reads the row, the prior and C_k + β̄ at its
// two topics only, so a trial randomizes those two slots of K-sized
// arrays.)
func TestChainAgreesWithEq7(t *testing.T) {
	for _, k := range []int{16, 2048, 65536} {
		src := rng.New(2024)
		counts := make([]int32, k)
		prior, ckb := make([]float64, k), make([]float64, k)
		next := newCountRow(k)
		decided, same := 0, 0
		for trial := 0; trial < 20000; trial++ {
			s, tt := int32(src.Intn(k)), int32(src.Intn(k))
			if trial%8 == 0 {
				tt = s
			}
			betaBar := 0.01 + 100*src.Float64()
			for _, i := range []int32{s, tt} {
				counts[i] = 0
				if src.Intn(3) > 0 {
					counts[i] = int32(src.Intn(1 << uint(1+src.Intn(12))))
				}
				prior[i] = 0.001 + 5*src.Float64()
				ckb[i] = float64(src.Intn(1<<uint(1+src.Intn(20)))) + betaBar
			}
			num := new(big.Float).SetPrec(200).Mul(big.NewFloat(float64(counts[tt])+prior[tt]), big.NewFloat(ckb[s]))
			den := new(big.Float).SetPrec(200).Mul(big.NewFloat(float64(counts[s])+prior[s]), big.NewFloat(ckb[tt]))
			pi, _ := new(big.Float).Quo(num, den).Float64()

			seed := src.Uint64()
			u := rng.Unit(rng.New(seed).Uint64())
			data := []int32{s, tt}
			next.reset()
			r := rng.New(seed)
			proposed, accepted := chain(data, nil, 2, countRow{c: counts}, &next, prior, ckb, r)
			fresh := rng.New(seed)
			fresh.Uint64()
			if r.State() != fresh.State() {
				t.Fatalf("K=%d: π=%g: the step did not consume exactly one generator word", k, pi)
			}
			if s == tt {
				same++
				if data[0] != s || proposed != 0 || accepted != 0 || !reflect.DeepEqual(next.touched, []int32{s}) {
					t.Fatalf("K=%d: a proposal equal to the state %d left %d, proposed=%d accepted=%d, recount %v", k, s, data[0], proposed, accepted, next.touched)
				}
				continue
			}
			if math.Abs(u-pi) < 1e-9*pi || math.Abs(pi-1) < 1e-9 {
				continue
			}
			decided++
			want := pi >= 1 || u < pi
			got := data[0] == tt
			if got != want || (data[0] != s && data[0] != tt) {
				t.Fatalf("K=%d: π=%g u=%g: assignment %d→%d, want accept=%v", k, pi, u, s, data[0], want)
			}
			if proposed != 1 || (accepted == 1) != want {
				t.Fatalf("K=%d: proposed=%d accepted=%d, want 1 and %v", k, proposed, accepted, want)
			}
			if next.c[data[0]] != 1 || next.c[s]+next.c[tt] != 1 || !reflect.DeepEqual(next.touched, []int32{data[0]}) {
				t.Fatalf("K=%d: recount touched %v after assigning %d", k, next.touched, data[0])
			}
		}
		if decided < 15000 || same < 2000 {
			t.Fatalf("K=%d: only %d of 20000 trials were away from ties, %d proposed the state", k, decided, same)
		}
	}
}

// branchyChain is chain written the plain way, with a branch per
// decision: one generator word per step, skip a proposal equal to the
// state, accept iff u·den ≤ num. It also returns how many steps with a
// proposal other than the state were ties, num = den or u·den = num.
func branchyChain(data, idx []int32, stride int, cur []int32, next *countRow, prior, ckb []float64, r *rng.RNG) (proposed, accepted, ties int) {
	for i, n := 0, entries(data, idx, stride); i < n; i++ {
		e := data[entryAt(idx, i)*stride:][:stride]
		s := e[0]
		for _, t := range e[1:] {
			u := rng.Unit(r.Uint64())
			if t == s {
				continue
			}
			proposed++
			num := (float64(cur[t]) + prior[t]) * ckb[s]
			den := (float64(cur[s]) + prior[s]) * ckb[t]
			if num == den || u*den == num {
				ties++
			}
			if u*den <= num {
				s = t
				accepted++
			}
		}
		e[0] = s
		if next.c[s] == 0 {
			next.touched = append(next.touched, s)
		}
		next.c[s]++
	}
	return proposed, accepted, ties
}

// Fed the same generator words, chain must leave exactly what
// branchyChain leaves: assignments, recount, touched list, statistics
// and generator state. Runs are random — with and without an entry
// index, M from 1 to 4, rows that already hold counts — and draw their
// topics, counts, priors and C_k + β̄ from small sets, so that proposals
// equal to the state and rates of exactly 1 are common. A step whose
// word lands exactly on u·den = num (a prior made from that word) must
// accept.
func TestChainMatchesBranchyReference(t *testing.T) {
	src := rng.New(7)
	ties := 0
	for trial := 0; trial < 3000; trial++ {
		k := 1 + src.Intn(12)
		if trial%3 == 0 {
			k = 300
		}
		cur := make([]int32, k)
		prior, ckb := make([]float64, k), make([]float64, k)
		for i := range cur {
			cur[i] = int32(src.Intn(3))
			prior[i] = []float64{0.5, 1, 1.5}[src.Intn(3)]
			ckb[i] = []float64{2, 3, 4}[src.Intn(3)]
		}
		stride, n := 2+src.Intn(4), 1+src.Intn(20)
		data := make([]int32, (n+3)*stride) // an index skips three entries
		for i := range data {
			data[i] = int32(src.Intn(min(k, 4)))
		}
		var idx []int32
		if src.Intn(2) == 0 {
			perm := make([]int32, n+3)
			for i := range perm {
				j := src.Intn(i + 1)
				perm[i], perm[j] = perm[j], int32(i)
			}
			idx = perm[:n]
		} else {
			data = data[:n*stride]
		}
		held := make([]int32, src.Intn(4))
		for i := range held {
			held[i] = int32(src.Intn(k))
		}
		rows := [2]countRow{newCountRow(k), newCountRow(k)}
		for i := range rows {
			count(held, nil, 1, &rows[i])
		}

		seed := src.Uint64()
		got, want := slices.Clone(data), slices.Clone(data)
		rGot, rWant := rng.New(seed), rng.New(seed)
		proposed, accepted := chain(got, idx, stride, countRow{c: cur}, &rows[0], prior, ckb, rGot)
		wantProposed, wantAccepted, tied := branchyChain(want, idx, stride, cur, &rows[1], prior, ckb, rWant)
		ties += tied
		if !slices.Equal(got, want) || proposed != wantProposed || accepted != wantAccepted {
			t.Fatalf("trial %d (K=%d, stride %d, index %v): chain left %v with %d/%d accepted, the reference %v with %d/%d",
				trial, k, stride, idx != nil, got, accepted, proposed, want, wantAccepted, wantProposed)
		}
		if !slices.Equal(rows[0].c, rows[1].c) || !slices.Equal(rows[0].touched, rows[1].touched) || rGot.State() != rWant.State() {
			t.Fatalf("trial %d: recount %v touched %v, reference %v touched %v; generators equal: %v",
				trial, rows[0].c, rows[0].touched, rows[1].c, rows[1].touched, rGot.State() == rWant.State())
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d tied steps in the random runs", ties)
	}

	const seed = 99
	u := rng.Unit(rng.New(seed).Uint64())
	data, next := []int32{0, 1}, newCountRow(2)
	// num = (0 + u)·1 and den = (0 + 1)·1, so u·den = num exactly.
	proposed, accepted := chain(data, nil, 2, countRow{c: []int32{0, 0}}, &next, []float64{1, u}, []float64{1, 1}, rng.New(seed))
	if u == 0 || data[0] != 1 || proposed != 1 || accepted != 1 {
		t.Fatalf("u·den = num (u = %g): assignment %d, %d of %d accepted; want the step taken", u, data[0], accepted, proposed)
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
// makes both the count part and the smoothing part carry real mass (the
// priors scale with 1/K, so they do at every K); the cases cover small
// and large K, the asymmetric prior, the proposal ablations and the
// staged heavy path.
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
	cases := []struct {
		name     string
		k        int // 0 means 6
		opts     Options
		alphaVec bool
		threads  int
	}{
		{name: "dense"},
		{name: "K2048", k: 2048},
		{name: "alphavec", alphaVec: true},
		{name: "dense-alias", opts: Options{DisableSparseAlias: true}},
		{name: "doc-alias", opts: Options{DocProposalAlias: true}},
		{name: "doc-alias-alphavec", opts: Options{DocProposalAlias: true}, alphaVec: true},
		{name: "doc-alias-alphavec-K2048", k: 2048, opts: Options{DocProposalAlias: true}, alphaVec: true},
		{name: "heavy", threads: 3},
	}
	alphaPattern := []float64{0.05, 0.2, 0.5, 1, 2, 4}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := max(tc.k, 6)
			scale := 6 / float64(k)
			cfg := sampler.Config{K: k, Alpha: 0.7 * scale, Beta: 2 * scale, M: 6, Seed: 5, Threads: tc.threads}
			if tc.alphaVec {
				cfg.AlphaVec = make([]float64, k)
				for i := range cfg.AlphaVec {
					cfg.AlphaVec[i] = alphaPattern[i%6] * scale
				}
			}
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
				word.add(groupOf(w.m.Column(col).Payload(), nil, w.m.Stride, w.pass.betas))
			}
			word.check(t, "word phase")

			w.docPhase()
			doc := newProposalTally(k)
			for row := range c.Docs {
				doc.add(groupOf(w.m.Payloads(), w.m.RowOf(row).Entries(), w.m.Stride, w.pass.alphas))
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

// After every Iterate, whatever the topic count, prior, ablation option
// or thread count, the global counts must be the histogram of the
// assignments and account for every token, and the pass statistics must
// describe the pass.
func TestIterateKeepsCountsConsistent(t *testing.T) {
	c := heavyMixCorpus()
	total := int32(c.NumTokens())
	cases := []struct {
		name     string
		k        int // 0 means 12
		opts     Options
		alphaVec bool
	}{
		{name: "dense"},
		{name: "K2048", k: 2048},
		{name: "K65536", k: 65536},
		{name: "alphavec", alphaVec: true},
		{name: "dense-alias", opts: Options{DisableSparseAlias: true}},
		{name: "doc-alias", opts: Options{DocProposalAlias: true}},
		{name: "doc-alias-alphavec-K2048", k: 2048, opts: Options{DocProposalAlias: true}, alphaVec: true},
		{name: "shuffled", opts: Options{ShuffleTokens: true}},
		{name: "no-intra-word", opts: Options{DisableIntraWord: true}},
	}
	for _, tc := range cases {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/threads=%d", tc.name, threads), func(t *testing.T) {
				cfg := defaultCfg(max(tc.k, 12))
				cfg.Threads = threads
				if tc.alphaVec {
					cfg.AlphaVec = make([]float64, cfg.K)
					for k := range cfg.AlphaVec {
						cfg.AlphaVec[k] = 0.05 * float64(k%12+1)
					}
				}
				w, err := NewWithOptions(c, cfg, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				// Word 0 occurs 1920 times: heavy while that exceeds max(K, 1024).
				wantHeavy := 0
				if threads > 1 && !tc.opts.DisableIntraWord && cfg.K < 1920 {
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

// Every visit counts into the same two K-sized rows, so each must start
// all-zero: a count left behind would leak one column's c_w into the
// next column's acceptance rates and proposal table, and no check on
// c_k would see it. At a K far above any row's length, with and without
// the staged heavy path: during a pass a row holds exactly the visited
// column's or document's tokens, and after it a reset leaves nothing.
func TestRowsCleanBetweenVisits(t *testing.T) {
	const k = 65536
	// Word 0 occurs 1100·60 > K times; the other 79 words about 55 times.
	c := &corpus.Corpus{V: 80, Docs: make([][]int32, 1100)}
	for d := range c.Docs {
		doc := make([]int32, 64)
		for n := 60; n < len(doc); n++ {
			doc[n] = int32(1 + (d*7+n)%79)
		}
		c.Docs[d] = doc
	}
	for _, threads := range []int{1, 3} {
		cfg := defaultCfg(k)
		cfg.Threads = threads
		w, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (threads > 1) != (len(w.heavyCols) == 1) {
			t.Fatalf("threads=%d: heavy columns %v", threads, w.heavyCols)
		}
		for i := 0; i < 3; i++ {
			w.Iterate()
		}

		// One more pass, a visit at a time.
		holds := func(what string, l int, rows ...countRow) {
			t.Helper()
			for _, r := range rows {
				sum := 0
				for _, topic := range r.touched {
					sum += int(r.c[topic])
				}
				if len(r.touched) > l || sum != l {
					t.Fatalf("threads=%d: after %s of %d tokens a row lists %d topics holding %d", threads, what, l, len(r.touched), sum)
				}
			}
		}
		w.heavyPhase()
		for _, wk := range w.workers {
			for _, rg := range wk.colChunks {
				for col := rg[0]; col < rg[1]; col++ {
					if lw := w.m.Column(col).Len(); lw > 0 && !w.isHeavy[col] {
						w.wordColumn(wk, col)
						holds("a column", lw, wk.cur, wk.next)
					}
				}
			}
		}
		for _, wk := range w.workers {
			clear(wk.ckAcc)
			for _, rg := range wk.rowChunks {
				for row := rg[0]; row < rg[1]; row++ {
					w.docRow(wk, row)
					holds("a document", len(c.Docs[row]), wk.cur)
				}
			}
		}
		w.merge()
		if !reflect.DeepEqual(w.GlobalCounts(), countsFromAssignments(w.Assignments(), k)) {
			t.Fatalf("threads=%d: the visit-at-a-time pass broke the global counts", threads)
		}

		for wi, wk := range w.workers {
			for _, r := range []*countRow{&wk.cur, &wk.next} {
				r.reset()
				if len(r.touched) != 0 {
					t.Fatalf("threads=%d worker %d: reset left %d touched topics", threads, wi, len(r.touched))
				}
				for topic, n := range r.c {
					if n != 0 {
						t.Fatalf("threads=%d worker %d: reset left c[%d] = %d", threads, wi, topic, n)
					}
				}
			}
		}
	}
}

// The serial pass must not allocate once its scratch has grown: every
// buffer the kernels use belongs to the worker.
func TestSerialIterateDoesNotAllocate(t *testing.T) {
	c := testCorpus(21)
	for _, k := range []int{16, 65536} {
		w, err := New(c, defaultCfg(k))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			w.Iterate()
		}
		if allocs := testing.AllocsPerRun(5, w.Iterate); allocs != 0 {
			t.Errorf("K=%d: Iterate allocates %v times per pass in steady state", k, allocs)
		}
	}
}
