package sparse

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"warplda/internal/rng"
)

// buildRandom creates a random matrix plus a reference entry list.
func buildRandom(seed uint64, rows, cols, nnz, stride int) (*Matrix, [][2]int32) {
	r := rng.New(seed)
	b := NewBuilder(rows, cols, stride)
	ref := make([][2]int32, nnz)
	for i := 0; i < nnz; i++ {
		row, col := int32(r.Intn(rows)), int32(r.Intn(cols))
		b.AddEntry(int(row), int(col))
		ref[i] = [2]int32{row, col}
	}
	return b.Freeze(), ref
}

func TestColumnsSortedByRow(t *testing.T) {
	m, _ := buildRandom(1, 40, 30, 500, 2)
	for c := 0; c < m.Cols; c++ {
		v := m.Column(c)
		for i := 1; i < v.Len(); i++ {
			if v.Row(i) < v.Row(i-1) {
				t.Fatalf("column %d not sorted by row", c)
			}
		}
	}
}

func TestEntriesPreserved(t *testing.T) {
	m, ref := buildRandom(2, 20, 25, 300, 1)
	if m.NNZ() != len(ref) {
		t.Fatalf("NNZ = %d, want %d", m.NNZ(), len(ref))
	}
	// Multiset of (row, col) pairs must match.
	want := map[[2]int32]int{}
	for _, e := range ref {
		want[e]++
	}
	got := map[[2]int32]int{}
	m.VisitByColumn(func(col int, v ColView) {
		for i := 0; i < v.Len(); i++ {
			got[[2]int32{v.Row(i), int32(col)}]++
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("column visit lost or invented entries")
	}
	got = map[[2]int32]int{}
	m.VisitByRow(func(row int, v RowView) {
		for i := 0; i < v.Len(); i++ {
			got[[2]int32{int32(row), v.Col(i)}]++
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("row visit lost or invented entries")
	}
}

func TestRowAndColumnSeeSameData(t *testing.T) {
	m, _ := buildRandom(3, 15, 15, 200, 3)
	// Stamp every entry with a unique id via column views.
	id := int32(0)
	m.VisitByColumn(func(col int, v ColView) {
		for i := 0; i < v.Len(); i++ {
			d := v.Data(i)
			d[0] = id
			d[1] = int32(col)
			d[2] = v.Row(i)
			id++
		}
	})
	// Row views must observe the same payloads with consistent metadata.
	seen := map[int32]bool{}
	m.VisitByRow(func(row int, v RowView) {
		for i := 0; i < v.Len(); i++ {
			d := v.Data(i)
			if seen[d[0]] {
				t.Fatalf("entry id %d seen twice from rows", d[0])
			}
			seen[d[0]] = true
			if d[2] != int32(row) {
				t.Fatalf("entry stamped row %d visited from row %d", d[2], row)
			}
			if d[1] != v.Col(i) {
				t.Fatalf("entry stamped col %d but Col(i) = %d", d[1], v.Col(i))
			}
		}
	})
	if len(seen) != m.NNZ() {
		t.Fatalf("row visit reached %d entries, want %d", len(seen), m.NNZ())
	}
}

// The bulk accessors must alias exactly the storage the per-entry views
// expose: Payload()[i*Stride:] is Data(i), and Entries()[i] addresses
// RowView.Data(i) inside Payloads().
func TestBulkAccessorsAliasEntryViews(t *testing.T) {
	m, _ := buildRandom(5, 12, 9, 150, 3)
	m.VisitByColumn(func(_ int, v ColView) {
		p := v.Payload()
		if len(p) != v.Len()*m.Stride {
			t.Fatalf("Payload has %d values for %d entries of stride %d", len(p), v.Len(), m.Stride)
		}
		for i := 0; i < v.Len(); i++ {
			if &p[i*m.Stride] != &v.Data(i)[0] {
				t.Fatalf("Payload entry %d is not Data(%d)", i, i)
			}
		}
	})
	m.VisitByRow(func(_ int, v RowView) {
		e := v.Entries()
		if len(e) != v.Len() {
			t.Fatalf("Entries has %d indices for %d entries", len(e), v.Len())
		}
		for i := range e {
			if int(e[i]) != v.EntryIndex(i) || &m.Payloads()[int(e[i])*m.Stride] != &v.Data(i)[0] {
				t.Fatalf("Entries[%d] does not address Data(%d)", i, i)
			}
		}
	})
}

func TestMutationVisibleAcrossViews(t *testing.T) {
	b := NewBuilder(2, 2, 1)
	b.AddEntry(1, 0)
	m := b.Freeze()
	m.RowOf(1).Data(0)[0] = 42
	if got := m.Column(0).Data(0)[0]; got != 42 {
		t.Fatalf("column view sees %d, want 42", got)
	}
}

func TestDuplicateCellEntries(t *testing.T) {
	b := NewBuilder(3, 3, 1)
	b.AddEntry(1, 1)
	b.AddEntry(1, 1)
	b.AddEntry(1, 1)
	m := b.Freeze()
	if m.Column(1).Len() != 3 || m.RowOf(1).Len() != 3 {
		t.Fatal("duplicate cell entries lost")
	}
}

func TestAddEntryOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBuilder(2, 2, 1).AddEntry(2, 0)
}

func TestEmptyMatrix(t *testing.T) {
	m := NewBuilder(4, 4, 1).Freeze()
	if m.NNZ() != 0 {
		t.Fatal("empty matrix has entries")
	}
	m.VisitByRow(func(row int, v RowView) {
		if v.Len() != 0 {
			t.Fatal("entries in empty matrix")
		}
	})
}

// Property: freeze preserves the (row, col) multiset and column sorting
// for arbitrary random matrices.
func TestFreezeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := r.Intn(12)+1, r.Intn(12)+1
		nnz := r.Intn(60)
		m, ref := buildRandom(seed, rows, cols, nnz, 1)
		want := map[[2]int32]int{}
		for _, e := range ref {
			want[e]++
		}
		got := map[[2]int32]int{}
		ok := true
		m.VisitByColumn(func(col int, v ColView) {
			for i := 0; i < v.Len(); i++ {
				got[[2]int32{v.Row(i), int32(col)}]++
				if i > 0 && v.Row(i) < v.Row(i-1) {
					ok = false
				}
			}
		})
		return ok && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// zipfWeights returns shifted-Zipf term frequencies. The shift emulates
// stop-word removal: the paper notes the most frequent ClueWeb12 word
// holds only 0.257% of tokens *after* stop words are removed, so the
// head must not dominate the total.
func zipfWeights(n int, seed uint64) []int {
	r := rng.New(seed)
	w := make([]int, n)
	for i := range w {
		w[i] = 1 + int(20000.0/float64(i+10)) + r.Intn(3)
	}
	return w
}

func TestImbalanceIndex(t *testing.T) {
	if got := ImbalanceIndex([]int64{10, 10, 10}); got != 0 {
		t.Fatalf("balanced index = %g", got)
	}
	if got := ImbalanceIndex([]int64{20, 10, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("index = %g, want 1 (max 20 / mean 10 - 1)", got)
	}
	if got := ImbalanceIndex(nil); got != 0 {
		t.Fatalf("empty index = %g", got)
	}
}

func TestPartitionsCoverAllItems(t *testing.T) {
	w := zipfWeights(500, 4)
	r := rng.New(5)
	for name, pt := range map[string]*Partition{
		"greedy":  GreedyPartition(w, 8),
		"static":  StaticPartition(w, 8, r),
		"dynamic": DynamicPartition(w, 8),
	} {
		if len(pt.Assign) != len(w) {
			t.Fatalf("%s: wrong length", name)
		}
		for i, p := range pt.Assign {
			if p < 0 || int(p) >= pt.P {
				t.Fatalf("%s: item %d assigned to part %d", name, i, p)
			}
		}
		var total int64
		for _, l := range pt.Loads(w) {
			total += l
		}
		var want int64
		for _, x := range w {
			want += int64(x)
		}
		if total != want {
			t.Fatalf("%s: loads sum %d, want %d", name, total, want)
		}
	}
}

func TestGreedyBeatsBaselines(t *testing.T) {
	// The paper's Figure 4: on power-law weights the greedy strategy is
	// orders of magnitude more balanced than static/dynamic.
	w := zipfWeights(2000, 6)
	const p = 16
	r := rng.New(7)
	greedy := ImbalanceIndex(GreedyPartition(w, p).Loads(w))
	static := ImbalanceIndex(StaticPartition(w, p, r).Loads(w))
	dynamic := ImbalanceIndex(DynamicPartition(w, p).Loads(w))
	if greedy >= static {
		t.Errorf("greedy %g not better than static %g", greedy, static)
	}
	if greedy >= dynamic {
		t.Errorf("greedy %g not better than dynamic %g", greedy, dynamic)
	}
	if greedy > 0.01 {
		t.Errorf("greedy imbalance %g unexpectedly large", greedy)
	}
}

func TestStaticEqualItemCounts(t *testing.T) {
	w := zipfWeights(100, 8)
	pt := StaticPartition(w, 4, rng.New(9))
	counts := make([]int, 4)
	for _, p := range pt.Assign {
		counts[p]++
	}
	for _, c := range counts {
		if c != 25 {
			t.Fatalf("static part sizes %v, want 25 each", counts)
		}
	}
}

func TestDynamicContiguous(t *testing.T) {
	w := zipfWeights(200, 10)
	pt := DynamicPartition(w, 5)
	for i := 1; i < len(pt.Assign); i++ {
		if pt.Assign[i] < pt.Assign[i-1] {
			t.Fatal("dynamic partition not contiguous")
		}
	}
	// Every part must be used.
	used := map[int32]bool{}
	for _, p := range pt.Assign {
		used[p] = true
	}
	if len(used) != 5 {
		t.Fatalf("dynamic used %d parts, want 5", len(used))
	}
}

func TestGreedySinglePart(t *testing.T) {
	w := []int{5, 3, 1}
	pt := GreedyPartition(w, 1)
	if ImbalanceIndex(pt.Loads(w)) != 0 {
		t.Fatal("single part must be perfectly balanced")
	}
}

func BenchmarkFreeze(b *testing.B) {
	r := rng.New(1)
	const rows, cols, nnz = 2000, 2000, 200000
	entries := make([][2]int, nnz)
	for i := range entries {
		entries[i] = [2]int{r.Intn(rows), r.Intn(cols)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(rows, cols, 2)
		for _, e := range entries {
			bl.AddEntry(e[0], e[1])
		}
		bl.Freeze()
	}
}

func BenchmarkGreedyPartition(b *testing.B) {
	w := zipfWeights(100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyPartition(w, 64)
	}
}

func TestFreezeShuffledPreservesMultiset(t *testing.T) {
	r := rng.New(31)
	b := NewBuilder(10, 12, 1)
	want := map[[2]int32]int{}
	for i := 0; i < 120; i++ {
		row, col := r.Intn(10), r.Intn(12)
		b.AddEntry(row, col)
		want[[2]int32{int32(row), int32(col)}]++
	}
	m := b.FreezeShuffled(5)
	got := map[[2]int32]int{}
	m.VisitByColumn(func(col int, v ColView) {
		for i := 0; i < v.Len(); i++ {
			got[[2]int32{v.Row(i), int32(col)}]++
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shuffled freeze lost entries")
	}
	// Row and column views must still agree on entry payloads.
	id := int32(0)
	m.VisitByColumn(func(_ int, v ColView) {
		for i := 0; i < v.Len(); i++ {
			v.Data(i)[0] = id
			id++
		}
	})
	seen := map[int32]bool{}
	m.VisitByRow(func(_ int, v RowView) {
		for i := 0; i < v.Len(); i++ {
			seen[v.Data(i)[0]] = true
		}
	})
	if len(seen) != m.NNZ() {
		t.Fatalf("row views reach %d entries, want %d", len(seen), m.NNZ())
	}
}
