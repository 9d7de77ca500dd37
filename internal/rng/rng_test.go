package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// Derive is the elastic-resume reseeding strategy: deterministic in
// (seed, salts...), and distinct for distinct inputs.
func TestDerive(t *testing.T) {
	a := Derive(42, 10, 3, 0)
	b := Derive(42, 10, 3, 0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
	seen := map[uint64]string{}
	for _, tc := range []struct {
		name  string
		salts []uint64
	}{
		{"iter10_p3_w0", []uint64{10, 3, 0}},
		{"iter10_p3_w1", []uint64{10, 3, 1}},
		{"iter10_p2_w0", []uint64{10, 2, 0}},
		{"iter11_p3_w0", []uint64{11, 3, 0}},
		{"no salts", nil},
	} {
		v := Derive(42, tc.salts...).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %s and %s collide on the first draw", tc.name, prev)
		}
		seen[v] = tc.name
	}
	if Derive(43, 10, 3, 0).Uint64() == Derive(42, 10, 3, 0).Uint64() {
		t.Fatal("seed does not separate derived streams")
	}
	// Salt order matters: (a, b) and (b, a) are different streams.
	if Derive(42, 1, 2).Uint64() == Derive(42, 2, 1).Uint64() {
		t.Fatal("salt order ignored")
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed = %d, want %d", i, got, first[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// A bound that does not fit 32 bits used to be truncated (Intn(1<<32)
// returned 0 forever). It must stay in range, use the whole range, and
// leave the 32-bit path's stream consumption alone.
func TestIntnBeyond32Bits(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("int is 32 bits")
	}
	r := New(9)
	for _, n := range []uint64{1 << 32, 1<<32 + 1, 3 << 40, 1<<62 + 12345} {
		var above, distinct = 0, map[int]bool{}
		for i := 0; i < 2000; i++ {
			v := r.Intn(int(n))
			if v < 0 || uint64(v) >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			if uint64(v) >= n/2 {
				above++
			}
			distinct[v] = true
		}
		if above < 850 || above > 1150 || len(distinct) < 1990 {
			t.Fatalf("Intn(%d): %d of 2000 draws in the upper half, %d distinct", n, above, len(distinct))
		}
	}
	a, b := New(4), New(4)
	a.Intn(1 << 20)
	b.Uint32()
	if a.State() != b.State() {
		t.Fatal("Intn below 1<<32 no longer consumes one 32-bit draw")
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %g", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

// AcceptMask takes a step iff u·den ≤ num: always at u = 0, always at
// π ≥ 1 (u < 1, so also at the largest u), on the exact tie u·den = num,
// and with probability π otherwise. The mask is all ones or zero.
func TestAcceptMask(t *testing.T) {
	const all = ^uint64(0)
	top := Unit(all) // 1 − 2⁻⁵³
	cases := []struct {
		name     string
		x        uint64
		num, den float64
		want     uint64
	}{
		{"u=0, num≪den", 0, 1e-300, 1, all},
		{"u=0, num≫den", 0, 1e300, 1e-300, all},
		{"largest u, num=den", all, 3.5, 3.5, all},
		{"largest u, num≫den", all, 1e300, 1e-300, all},
		{"largest u, u·den=num", all, top, 1, all},
		{"largest u, u·den just above num", all, math.Nextafter(top, 0), 1, 0},
		{"largest u, num≪den", all, 1e-300, 1, 0},
		{"u=1/2, num=den/2", 1 << 63, 1, 2, all},
		{"u=1/2, num just below den/2", 1 << 63, math.Nextafter(1, 0), 2, 0},
	}
	for _, tc := range cases {
		if got := AcceptMask(tc.x, tc.num, tc.den); got != tc.want {
			t.Errorf("%s: AcceptMask = %#x, want %#x", tc.name, got, tc.want)
		}
	}

	r := New(31)
	const draws, pi = 200000, 0.3
	taken := 0
	for i := 0; i < draws; i++ {
		switch AcceptMask(r.Uint64(), 3*pi, 3) {
		case all:
			taken++
		case 0:
		default:
			t.Fatal("AcceptMask returned a mask that is neither all ones nor zero")
		}
	}
	if sd := math.Sqrt(draws * pi * (1 - pi)); math.Abs(float64(taken)-draws*pi) > 5*sd {
		t.Fatalf("accepted %d of %d steps at π = %g, want %.0f ± %.0f", taken, draws, pi, draws*pi, sd)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(13)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%g) empirical mean %g", p, got)
	}
}

func TestGammaMean(t *testing.T) {
	r := New(17)
	for _, shape := range []float64{0.1, 0.5, 1, 2.5, 10} {
		const draws = 50000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / draws
		// Gamma(a,1) has mean a and variance a.
		tol := 5 * math.Sqrt(shape/draws)
		if math.Abs(mean-shape) > tol {
			t.Errorf("Gamma(%g) mean %g, want %g (tol %g)", shape, mean, shape, tol)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(19)
	out := make([]float64, 50)
	for trial := 0; trial < 100; trial++ {
		r.Dirichlet(0.1, out)
		var sum float64
		for _, v := range out {
			if v < 0 {
				t.Fatalf("negative component %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sums to %g", sum)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const draws = 100000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		x := r.Normal()
		sum += x
		sumsq += x * x
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %g", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(29)
	child := parent.Split()
	// The child stream must not be a shifted copy of the parent stream.
	a := make([]uint64, 64)
	for i := range a {
		a[i] = parent.Uint64()
	}
	for i := 0; i < 64; i++ {
		v := child.Uint64()
		for _, x := range a {
			if v == x {
				t.Fatalf("child draw %d equals a parent draw", i)
			}
		}
	}
}

// Property: Intn never escapes its range, for arbitrary seeds and sizes.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1024)
	}
	_ = sink
}

func TestStateRoundTrip(t *testing.T) {
	r := New(12345)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 8)
	for i := range want {
		want[i] = r.Uint64()
	}
	// Restore into a differently-seeded generator: it must replay the
	// exact stream.
	r2 := New(999)
	r2.SetState(st)
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("draw %d after restore: %d, want %d", i, got, w)
		}
	}
	// The all-zero state is invalid for xoshiro256**; SetState must not
	// produce a generator stuck at zero.
	r3 := New(1)
	r3.SetState([4]uint64{})
	if r3.Uint64() == 0 && r3.Uint64() == 0 && r3.Uint64() == 0 {
		t.Fatal("zero state produced a dead generator")
	}
}
