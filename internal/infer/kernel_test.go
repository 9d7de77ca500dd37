package infer

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"warplda/internal/alias"
	"warplda/internal/rng"
)

// tinyModel is a frozen model small enough to enumerate: three topics
// of very different size (so C_k+β̄ matters), a word on one topic, words
// on two, and a word without support (so the smoothing part carries a
// whole proposal).
func tinyModel(t *testing.T, mh int) *Engine {
	t.Helper()
	cw := []int32{
		5, 1, 0,
		0, 3, 2,
		1, 0, 30,
		0, 0, 0,
	}
	e, err := NewEngine(Params{V: 4, K: 3, Alpha: 0.3, Beta: 0.2, Cw: cw, Ck: []int64{6, 4, 32}},
		Options{MHSteps: mh, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// exactPosterior enumerates p(z | w, Φ̂, α) ∝ Π_n Φ̂_{w_n z_n} · Π_k
// Γ(c_k(z)+α)/Γ(α), the joint whose Gibbs conditionals are the chain's
// target (c_dk+α)Φ̂_wk. State z is the base-K number with digits z_n.
func exactPosterior(e *Engine, doc []int32) []float64 {
	k := e.K()
	states := 1
	for range doc {
		states *= k
	}
	p := make([]float64, states)
	var total float64
	c := make([]int, k)
	for s := range p {
		clear(c)
		w := 1.0
		for n, rest := 0, s; n < len(doc); n, rest = n+1, rest/k {
			z := rest % k
			w *= e.Phi(int(doc[n]), z) * (float64(c[z]) + e.Alpha()) // the rising factorial, one factor per token
			c[z]++
		}
		p[s] = w
		total += w
	}
	for s := range p {
		p[s] /= total
	}
	return p
}

// chiSquare compares observed counts with n·p, pooling the classes that
// expect fewer than five observations, and returns the statistic and
// its degrees of freedom.
func chiSquare(observed []int, p []float64, n int) (stat float64, df int) {
	var poolObs, poolExp float64
	term := func(o, e float64) {
		stat += (o - e) * (o - e) / e
		df++
	}
	for s, o := range observed {
		if e := float64(n) * p[s]; e < 5 {
			poolObs += float64(o)
			poolExp += e
		} else {
			term(float64(o), e)
		}
	}
	if poolExp > 0 {
		term(poolObs, poolExp)
	}
	return stat, df - 1
}

// The fold-in chain's final state over many independent seeds must be
// distributed as the exact posterior of the document's assignments. The
// document is short and repeats a word, so the token's own +1 in the
// doc proposal is a large part of it. Measured on this model, χ² sits
// at its degrees of freedom for the kernel as written and far above the
// limit when the doc step swaps C_cur+β̄ with C_t+β̄ (≈5·10⁴), when the
// word step's rate is off by one count (≈10³), when the doc step keeps
// the old topic in z and corrects with [k==old] terms the way LightLDA
// does (≈10⁴ at MHSteps 1, 3·10³ at 2), and, at MHSteps 2 only, when an
// accepted move is not stored in z before the next proposal (≈380).
func TestFoldInMatchesExactPosterior(t *testing.T) {
	doc := []int32{0, 1, 2, 0, 3}
	const seeds, sweeps = 100000, 20
	for _, mh := range []int{1, 2} {
		t.Run(fmt.Sprintf("MHSteps=%d", mh), func(t *testing.T) {
			e := tinyModel(t, mh)
			want := exactPosterior(e, doc)
			observed := make([]int, len(want))
			sc := e.getScratch()
			for seed := uint64(0); seed < seeds; seed++ {
				e.runChain(doc, sweeps, seed, sc)
				s := 0
				for n := len(doc) - 1; n >= 0; n-- {
					s = s*e.K() + int(sc.z[n])
				}
				observed[s]++
			}
			stat, df := chiSquare(observed, want, seeds)
			// A χ² with this many degrees of freedom is close to normal;
			// five standard deviations above the mean.
			limit := float64(df) + 5*math.Sqrt(2*float64(df))
			t.Logf("χ² = %.1f on %d degrees of freedom (limit %.1f)", stat, df, limit)
			if stat > limit {
				t.Errorf("final states do not follow the exact posterior: χ² = %.1f on %d degrees of freedom, limit %.1f", stat, df, limit)
			}
		})
	}
}

// A word proposal must be a draw from Φ̂_w: from the word's table, and
// from the engine's smoothing table when that yields smoothTopic. Per
// word, the classes are the K topics and the smoothing outcome itself,
// whose share Σβ/(C_k+β̄) over the word's whole mass is what a wrong
// split between the two parts would move while leaving the topics of a
// well-supported word nearly right.
func TestWordProposalFollowsPhi(t *testing.T) {
	e := tinyModel(t, 2)
	const draws = 200000
	g := rng.New(11)
	for w := 0; w < e.V(); w++ {
		observed := make([]float64, e.K()+1)
		for i := 0; i < draws; i++ {
			topic := e.words[w].Draw(g.Uint64())
			if topic == smoothTopic {
				observed[e.K()]++
				topic = e.smooth.Draw(g.Uint64())
			}
			observed[topic]++
		}
		want := make([]float64, e.K()+1)
		var z float64
		for k := 0; k < e.K(); k++ {
			want[k] = e.Phi(w, k)
			z += want[k]
		}
		want[e.K()] = e.zbSmooth
		for class, p := range want {
			p /= z
			mean, sd := draws*p, math.Sqrt(draws*p*(1-p))
			if math.Abs(observed[class]-mean) > 5*sd+3 {
				name := fmt.Sprintf("topic %d", class)
				if class == e.K() {
					name = "the smoothing part"
				}
				t.Errorf("word %d: %s proposed %.0f times, want %.1f ± %.1f", w, name, observed[class], mean, sd)
			}
		}
	}
}

// MemoryBytes must be the size of what the engine allocated, and a
// folded engine must report what a fresh build of the same counts does:
// the registry's byte budget reads it for both.
func TestMemoryBytesIsExact(t *testing.T) {
	e := tinyModel(t, 2)
	sizeOf := func(e *Engine) int64 {
		n := int64(len(e.ckBar))*int64(unsafe.Sizeof(e.ckBar[0])) +
			int64(len(e.smooth))*int64(unsafe.Sizeof(alias.Bin{})) +
			int64(len(e.words))*int64(unsafe.Sizeof(e.words[0]))
		for _, tab := range e.words {
			if len(tab) != cap(tab) {
				t.Errorf("a word table of %d bins holds room for %d", len(tab), cap(tab))
			}
			n += int64(len(tab)) * int64(unsafe.Sizeof(alias.Bin{}))
		}
		return n
	}
	if got, want := e.MemoryBytes(), sizeOf(e); got != want {
		t.Errorf("MemoryBytes() = %d, the engine's slices hold %d", got, want)
	}
	// 4 words with 2+2+2+0 supported topics and one smoothing bin each.
	if got, want := e.MemoryBytes(), int64(3*8+3*16+4*24+(6+4)*16); got != want {
		t.Errorf("MemoryBytes() = %d, want %d", got, want)
	}

	cw, ck := e.Counts()
	newCw, newCk := append([]int32(nil), cw...), append([]int64(nil), ck...)
	newCw[3*3+1], newCk[1] = 2, ck[1]+2 // the unsupported word gains a topic
	folded, _, err := e.ApplyDelta(deltaBetween(4, 3, cw, ck, newCw, newCk, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(Params{V: 4, K: 3, Alpha: 0.3, Beta: 0.2, Cw: newCw, Ck: newCk}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if folded.MemoryBytes() != fresh.MemoryBytes() || folded.MemoryBytes() != sizeOf(folded) {
		t.Errorf("folded engine reports %d bytes and holds %d, a fresh one reports %d",
			folded.MemoryBytes(), sizeOf(folded), fresh.MemoryBytes())
	}
	if folded.MemoryBytes() != e.MemoryBytes()+16 {
		t.Errorf("one more supported topic took the engine from %d to %d bytes, want +16", e.MemoryBytes(), folded.MemoryBytes())
	}
}
