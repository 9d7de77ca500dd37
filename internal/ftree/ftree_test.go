package ftree

import (
	"math"
	"testing"
	"testing/quick"

	"warplda/internal/rng"
)

func TestTotalTracksUpdates(t *testing.T) {
	tr := New(10)
	tr.Set(3, 2)
	tr.Set(7, 5)
	if got := tr.Total(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("Total = %g, want 7", got)
	}
	tr.Set(3, 0)
	if got := tr.Total(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Total = %g, want 5", got)
	}
	tr.Add(7, -1.5)
	if got := tr.Total(); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("Total = %g, want 3.5", got)
	}
}

func TestGetRoundTrips(t *testing.T) {
	tr := New(33) // non-power-of-two
	r := rng.New(1)
	want := make([]float64, 33)
	for i := range want {
		want[i] = r.Float64() * 4
		tr.Set(i, want[i])
	}
	for i, w := range want {
		if got := tr.Get(i); math.Abs(got-w) > 1e-12 {
			t.Fatalf("Get(%d) = %g, want %g", i, got, w)
		}
	}
}

func TestBuildMatchesSets(t *testing.T) {
	w := []float64{1, 0, 3, 2, 0.5}
	a := New(5)
	a.Build(w)
	b := New(5)
	for i, x := range w {
		b.Set(i, x)
	}
	if math.Abs(a.Total()-b.Total()) > 1e-12 {
		t.Fatalf("totals differ: %g vs %g", a.Total(), b.Total())
	}
	for i := range w {
		if math.Abs(a.Get(i)-b.Get(i)) > 1e-12 {
			t.Fatalf("leaf %d differs", i)
		}
	}
}

func TestSampleDistribution(t *testing.T) {
	w := []float64{1, 4, 0, 2, 3}
	tr := New(5)
	tr.Build(w)
	r := rng.New(42)
	const n = 100000
	counts := make([]int, 5)
	for i := 0; i < n; i++ {
		counts[tr.Sample(r)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight leaf sampled %d times", counts[2])
	}
	total := 10.0
	for i, x := range w {
		p := x / total
		want := p * n
		sd := math.Sqrt(n * p * (1 - p))
		if math.Abs(float64(counts[i])-want) > 6*sd+3 {
			t.Errorf("leaf %d: %d draws, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestSampleAfterIncrementalUpdates(t *testing.T) {
	tr := New(8)
	tr.Build([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	// Kill all but leaf 5.
	for i := 0; i < 8; i++ {
		if i != 5 {
			tr.Set(i, 0)
		}
	}
	r := rng.New(7)
	for i := 0; i < 1000; i++ {
		if got := tr.Sample(r); got != 5 {
			t.Fatalf("Sample = %d, want 5", got)
		}
	}
}

func TestSingleLeaf(t *testing.T) {
	tr := New(1)
	tr.Set(0, 3)
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		if tr.Sample(r) != 0 {
			t.Fatal("single-leaf tree sampled nonzero")
		}
	}
}

func TestNewZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestNegativeSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	New(4).Set(0, -1)
}

func TestBuildLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(4).Build([]float64{1, 2})
}

// Property: Total equals sum of leaves after arbitrary update sequences,
// and Sample always returns an in-range leaf with positive weight.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%50) + 1
		r := rng.New(seed)
		tr := New(k)
		w := make([]float64, k)
		for op := 0; op < 200; op++ {
			i := r.Intn(k)
			x := r.Float64() * 3
			w[i] = x
			tr.Set(i, x)
		}
		var sum float64
		for _, x := range w {
			sum += x
		}
		if math.Abs(tr.Total()-sum) > 1e-9*(1+sum) {
			return false
		}
		if sum > 0 {
			for i := 0; i < 50; i++ {
				leaf := tr.Sample(r)
				if leaf < 0 || leaf >= k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New(1 << 16)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(i&(1<<16-1), r.Float64())
	}
}

// Named to stay out of the BenchmarkSample* family (-bench=BenchmarkSample
// selects whole sampling passes, not nanosecond-scale micro-benchmarks).
func BenchmarkFTreeDraw(b *testing.B) {
	tr := New(1 << 16)
	r := rng.New(1)
	for i := 0; i < 1<<16; i++ {
		tr.Set(i, r.Float64())
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += tr.Sample(r)
	}
	_ = sink
}
