package alias

import (
	"math"
	"testing"
	"testing/quick"

	"warplda/internal/rng"
)

// chiSquareOK draws n samples through each draw routine (Draw, and the
// packed form fed one generator word) and checks empirical frequencies
// against the normalized weights with a generous z-test per bucket.
func chiSquareOK(t *testing.T, tab *Table, weights []float64, n int) {
	t.Helper()
	r := rng.New(99)
	t.Run("Draw", func(t *testing.T) { frequenciesOK(t, func() int { return tab.Draw(r) }, weights, n) })
	packed := tab.Pack(nil, nil)
	t.Run("Packed", func(t *testing.T) { frequenciesOK(t, func() int { return int(packed.Draw(r.Uint64())) }, weights, n) })
}

func frequenciesOK(t *testing.T, draw func() int, weights []float64, n int) {
	t.Helper()
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		v := draw()
		if v < 0 || v >= len(weights) {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		p := w / total
		want := p * float64(n)
		sd := math.Sqrt(float64(n) * p * (1 - p))
		if math.Abs(float64(counts[i])-want) > 6*sd+3 {
			t.Errorf("outcome %d: count %d, want ~%.1f (sd %.1f)", i, counts[i], want, sd)
		}
	}
}

func TestUniform(t *testing.T) {
	w := []float64{1, 1, 1, 1}
	chiSquareOK(t, New(w), w, 40000)
}

func TestSkewed(t *testing.T) {
	w := []float64{0.1, 10, 1, 5, 0.01, 3}
	chiSquareOK(t, New(w), w, 60000)
}

func TestSingleOutcome(t *testing.T) {
	tab := New([]float64{3.5})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if tab.Draw(r) != 0 {
			t.Fatal("single-outcome table drew nonzero")
		}
	}
}

func TestZeroWeightNeverDrawn(t *testing.T) {
	w := []float64{0, 1, 0, 2, 0}
	tab := New(w)
	r := rng.New(2)
	for i := 0; i < 50000; i++ {
		v := tab.Draw(r)
		if v == 0 || v == 2 || v == 4 {
			t.Fatalf("drew zero-weight outcome %d", v)
		}
	}
}

func TestAllZeroFallsBackToUniform(t *testing.T) {
	w := []float64{0, 0, 0}
	tab := New(w)
	r := rng.New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[tab.Draw(r)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform fallback drew %d distinct outcomes, want 3", len(seen))
	}
}

func TestNegativeTreatedAsZero(t *testing.T) {
	w := []float64{-5, 1}
	tab := New(w)
	r := rng.New(4)
	for i := 0; i < 10000; i++ {
		if tab.Draw(r) == 0 {
			t.Fatal("drew negative-weight outcome")
		}
	}
}

func TestRebuildReuses(t *testing.T) {
	tab := New([]float64{1, 2, 3})
	tab.Build([]float64{5, 1})
	if tab.K() != 2 {
		t.Fatalf("K after rebuild = %d, want 2", tab.K())
	}
	chiSquareOK(t, tab, []float64{5, 1}, 30000)
}

// Draw must keep consuming exactly two calls (Intn then Float64): serving and the
// baselines replay streams that depend on it.
func TestDrawConsumption(t *testing.T) {
	tab := New([]float64{0.1, 10, 1, 5, 0.01, 3})
	r, want := rng.New(8), rng.New(8)
	for i := 0; i < 100; i++ {
		tab.Draw(r)
		want.Intn(tab.K())
		want.Float64()
	}
	if r.State() != want.State() {
		t.Fatal("Draw no longer consumes one Intn and one Float64")
	}
}

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build(nil) did not panic")
		}
	}()
	New(nil)
}

func TestSparseTable(t *testing.T) {
	var s SparseTable
	s.Build([]int32{7, 42, 3}, []float64{1, 2, 1})
	r := rng.New(5)
	counts := map[int32]int{}
	for i := 0; i < 40000; i++ {
		counts[s.Draw(r)]++
	}
	if len(counts) != 3 {
		t.Fatalf("drew %d distinct outcomes, want 3", len(counts))
	}
	if counts[42] < counts[7] || counts[42] < counts[3] {
		t.Fatalf("outcome 42 (weight 2) drawn less than weight-1 outcomes: %v", counts)
	}
}

// Pack with an outcome list must name bins the way SparseTable does.
func TestPackedNamesOutcomes(t *testing.T) {
	outcomes, weights := []int32{7, 42, 3}, []float64{1, 2, 1}
	packed := New(weights).Pack(make(Packed, 0, 3), outcomes)
	r := rng.New(5)
	index := map[int32]int{7: 0, 42: 1, 3: 2}
	frequenciesOK(t, func() int {
		if i, ok := index[packed.Draw(r.Uint64())]; ok {
			return i
		}
		return -1
	}, weights, 40000)
}

// A packed bin yields Hit iff the low half's uniform u is below Prob,
// Miss otherwise (u = Prob included), whatever the outcomes' signs: the
// select is a sign-bit mask, not a comparison.
func TestPackedDrawSelectsByThreshold(t *testing.T) {
	bin := Packed{{Prob: 0.25, Hit: -1, Miss: 7}}
	for _, tc := range []struct {
		lo   uint32
		want int32
	}{
		{0, -1},
		{1<<30 - 1, -1},
		{1 << 30, 7}, // u = 0.25 exactly
		{1<<32 - 1, 7},
	} {
		if got := bin.Draw(0xdeadbeef<<32 | uint64(tc.lo)); got != tc.want {
			t.Errorf("u = %d/2³²: Draw = %d, want %d", tc.lo, got, tc.want)
		}
	}
	for _, b := range []Bin{{Prob: 1, Hit: 3, Miss: -1}, {Prob: 0, Hit: -1, Miss: 3}} {
		if got := (Packed{b}).Draw(1<<32 - 1); got != 3 {
			t.Errorf("Prob %g: Draw at the largest u = %d, want 3", b.Prob, got)
		}
		if got := (Packed{b}).Draw(0); got != 3 {
			t.Errorf("Prob %g: Draw at u = 0 = %d, want 3", b.Prob, got)
		}
	}
}

func TestSparseTableMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Build did not panic")
		}
	}()
	var s SparseTable
	s.Build([]int32{1}, []float64{1, 2})
}

// Property: the table always produces indices within range and, for a
// distribution with a single heavy atom (>90% of mass), that atom is the
// modal outcome.
func TestHeavyAtomProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, heavyRaw uint8) bool {
		k := int(kRaw%20) + 2
		heavy := int(heavyRaw) % k
		w := make([]float64, k)
		for i := range w {
			w[i] = 0.01
		}
		w[heavy] = 10
		tab := New(w)
		r := rng.New(seed)
		counts := make([]int, k)
		for i := 0; i < 2000; i++ {
			v := tab.Draw(r)
			if v < 0 || v >= k {
				return false
			}
			counts[v]++
		}
		mode := 0
		for i, c := range counts {
			if c > counts[mode] {
				mode = i
			}
		}
		return mode == heavy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: total probability is conserved — every bin threshold is in
// [0,1] and refers to valid outcomes after Build on random weights.
func TestBuildInvariants(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%64) + 1
		r := rng.New(seed)
		w := make([]float64, k)
		for i := range w {
			w[i] = r.Float64() * 10
		}
		tab := New(w)
		for i := 0; i < k; i++ {
			if tab.prob[i] < 0 || tab.prob[i] > 1+1e-9 {
				return false
			}
			if tab.first[i] < 0 || int(tab.first[i]) >= k {
				return false
			}
			if tab.second[i] < 0 || int(tab.second[i]) >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild1024(b *testing.B) {
	r := rng.New(1)
	w := make([]float64, 1024)
	for i := range w {
		w[i] = r.Float64()
	}
	tab := &Table{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Build(w)
	}
}

func BenchmarkDraw(b *testing.B) {
	r := rng.New(1)
	w := make([]float64, 1024)
	for i := range w {
		w[i] = r.Float64()
	}
	tab := New(w)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += tab.Draw(r)
	}
	_ = sink
}
