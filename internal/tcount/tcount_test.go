package tcount

import (
	"testing"
	"testing/quick"

	"warplda/internal/rng"
)

// exercise runs the same randomized workload against a Counter and a
// reference map, checking agreement.
func exercise(t *testing.T, c Counter, k int, seed uint64, ops int) {
	t.Helper()
	r := rng.New(seed)
	ref := make(map[int32]int32)
	for i := 0; i < ops; i++ {
		topic := int32(r.Intn(k))
		switch {
		case ref[topic] > 0 && r.Float64() < 0.4:
			c.Decr(topic)
			ref[topic]--
		default:
			c.Incr(topic)
			ref[topic]++
		}
		if i%97 == 0 {
			probe := int32(r.Intn(k))
			if got, want := c.Get(probe), ref[probe]; got != want {
				t.Fatalf("op %d: Get(%d) = %d, want %d", i, probe, got, want)
			}
		}
	}
	// Full agreement at the end.
	nz := 0
	for topic, count := range ref {
		if count > 0 {
			nz++
		}
		if got := c.Get(topic); got != count {
			t.Fatalf("final Get(%d) = %d, want %d", topic, got, count)
		}
	}
	if c.Distinct() != nz {
		t.Fatalf("Distinct() = %d, want %d", c.Distinct(), nz)
	}
	seen := make(map[int32]int32)
	c.NonZero(func(topic, count int32) {
		if _, dup := seen[topic]; dup {
			t.Fatalf("NonZero visited topic %d twice", topic)
		}
		seen[topic] = count
	})
	if len(seen) != nz {
		t.Fatalf("NonZero visited %d topics, want %d", len(seen), nz)
	}
	for topic, count := range seen {
		if ref[topic] != count {
			t.Fatalf("NonZero(%d) = %d, want %d", topic, count, ref[topic])
		}
	}
	// Reset empties everything.
	c.Reset()
	if c.Distinct() != 0 {
		t.Fatalf("Distinct after Reset = %d", c.Distinct())
	}
	c.NonZero(func(topic, count int32) {
		t.Fatalf("NonZero after Reset visited %d", topic)
	})
	for i := 0; i < 10; i++ {
		if c.Get(int32(r.Intn(k))) != 0 {
			t.Fatal("Get nonzero after Reset")
		}
	}
}

func TestDenseAgainstMap(t *testing.T)     { exercise(t, NewDense(50), 50, 1, 5000) }
func TestHashAgainstMap(t *testing.T)      { exercise(t, NewHash(8), 50, 2, 5000) }
func TestHashLargeKeySpace(t *testing.T)   { exercise(t, NewHash(4), 1_000_000, 3, 3000) }
func TestHashGrowthUnderLoad(t *testing.T) { exercise(t, NewHash(1), 10000, 4, 8000) }
func TestDenseReuseAfterReset(t *testing.T) {
	c := NewDense(10)
	exercise(t, c, 10, 5, 500)
	exercise(t, c, 10, 6, 500)
}
func TestHashReuseAfterReset(t *testing.T) {
	c := NewHash(4)
	exercise(t, c, 100, 7, 500)
	exercise(t, c, 100, 8, 500)
}

func TestDenseDecrBelowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDense(3).Decr(1)
}

func TestHashDecrBelowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHash(4).Decr(1)
}

func TestHashDecrToZeroThenIncr(t *testing.T) {
	h := NewHash(4)
	h.Incr(7)
	h.Decr(7)
	if h.Get(7) != 0 || h.Distinct() != 0 {
		t.Fatal("count not zero after Incr/Decr")
	}
	h.Incr(7)
	if h.Get(7) != 1 || h.Distinct() != 1 {
		t.Fatal("re-Incr after zero failed")
	}
}

func TestCapacityFor(t *testing.T) {
	cases := []struct{ k, l, want int }{
		{1000000, 3, 8},     // min pow2 > 6
		{1000000, 100, 256}, // min pow2 > 200
		{16, 1000, 32},      // min pow2 > 16
		{1024, 512, 2048},   // min(K,2L)=1024 → 2048
		{5, 5, 8},           // min pow2 > 5
	}
	for _, c := range cases {
		if got := CapacityFor(c.k, c.l); got != c.want {
			t.Errorf("CapacityFor(%d,%d) = %d, want %d", c.k, c.l, got, c.want)
		}
	}
}

// Property: for any op sequence, sum of counts equals incrs-decrs.
func TestHashSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := NewHash(4)
		balance := 0
		ref := map[int32]int32{}
		for i := 0; i < 400; i++ {
			k := int32(r.Intn(64))
			if ref[k] > 0 && r.Float64() < 0.3 {
				h.Decr(k)
				ref[k]--
				balance--
			} else {
				h.Incr(k)
				ref[k]++
				balance++
			}
		}
		var sum int32
		h.NonZero(func(_, c int32) { sum += c })
		return int(sum) == balance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHashIncr(b *testing.B) {
	h := NewHash(64)
	r := rng.New(1)
	keys := make([]int32, 1024)
	for i := range keys {
		keys[i] = int32(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Incr(keys[i&1023])
	}
}

func BenchmarkDenseIncr(b *testing.B) {
	d := NewDense(1 << 20)
	r := rng.New(1)
	keys := make([]int32, 1024)
	for i := range keys {
		keys[i] = int32(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Incr(keys[i&1023])
	}
}

func BenchmarkHashReset(b *testing.B) {
	h := NewHash(256)
	for i := 0; i < 256; i++ {
		h.Incr(int32(i * 37))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
	}
}

func TestDenseNonZeroAfterBounce(t *testing.T) {
	d := NewDense(10)
	d.Incr(3)
	d.Decr(3)
	d.Incr(3) // touched now holds 3 twice
	visits := 0
	d.NonZero(func(k, c int32) {
		if k != 3 || c != 1 {
			t.Fatalf("NonZero(%d,%d)", k, c)
		}
		visits++
	})
	if visits != 1 {
		t.Fatalf("bounced topic visited %d times", visits)
	}
	if d.Get(3) != 1 {
		t.Fatal("counts not restored after NonZero")
	}
}

func TestHashResetFor(t *testing.T) {
	h := NewHash(4)
	for i := 0; i < 100; i++ {
		h.Incr(int32(i))
	}
	grownCap := h.Capacity()
	h.ResetFor(1000000, 3) // min pow2 > 6 = 8
	if h.Capacity() != 8 {
		t.Fatalf("capacity after ResetFor = %d, want 8", h.Capacity())
	}
	if h.Distinct() != 0 || h.Get(5) != 0 {
		t.Fatal("ResetFor did not clear")
	}
	h.Incr(42)
	if h.Get(42) != 1 {
		t.Fatal("table unusable after ResetFor")
	}
	h.ResetFor(1000000, grownCap) // grow back
	if h.Capacity() <= 8 {
		t.Fatal("ResetFor did not grow")
	}
	exercise(t, h, 500, 21, 2000)
}
