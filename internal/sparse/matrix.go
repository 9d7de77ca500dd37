// Package sparse implements the distributed sparse-matrix framework of
// the WarpLDA paper (Section 5): a D×V matrix of per-token entries with
// exactly three operations — AddEntry at initialization, VisitByRow and
// VisitByColumn during training.
//
// The data layout follows Section 5.2: only the CSC (column-major) copy
// of the entry data is stored, plus a pointer array (PCSR) that lets row
// visits reach their entries by indirection. Entries within each column
// are sorted by row id, so a row-order sweep touches every column's
// entries front to back and each fetched cache line is fully consumed
// before eviction.
//
// The package also provides the column partitioners of Section 5.3.2
// (greedy, static-random, dynamic-contiguous) and the imbalance index of
// Figure 4.
package sparse

import "fmt"

// Matrix is the frozen sparse matrix. Each entry carries Stride int32
// values of user data (for WarpLDA: the topic assignment plus M
// proposals). Build one with a Builder.
type Matrix struct {
	Rows, Cols, Stride int

	// CSC storage: entries are ordered by (column, row).
	colStart []int32 // len Cols+1; entry indices of each column
	rowID    []int32 // len NNZ; row of each entry, ascending within a column
	colID    []int32 // len NNZ; column of each entry (for O(1) RowView.Col)
	data     []int32 // len NNZ*Stride; entry payloads in CSC order

	// PCSR: for each row, the CSC indices of its entries in insertion order.
	rowStart []int32 // len Rows+1
	rowPtr   []int32 // len NNZ; CSC index of each row entry
}

// Builder accumulates entries before freezing them into a Matrix.
type Builder struct {
	rows, cols, stride int
	entryRow, entryCol []int32
}

// NewBuilder returns a builder for a rows×cols matrix whose entries carry
// stride int32 values each.
func NewBuilder(rows, cols, stride int) *Builder {
	if rows <= 0 || cols <= 0 || stride <= 0 {
		panic("sparse: non-positive dimension")
	}
	return &Builder{rows: rows, cols: cols, stride: stride}
}

// AddEntry records an entry at (row, col). Duplicate cells are allowed —
// a word may occur several times in one document. Payloads start zeroed.
func (b *Builder) AddEntry(row, col int) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("sparse: AddEntry(%d,%d) outside %dx%d", row, col, b.rows, b.cols))
	}
	b.entryRow = append(b.entryRow, int32(row))
	b.entryCol = append(b.entryCol, int32(col))
}

// NNZ returns the number of entries added so far.
func (b *Builder) NNZ() int { return len(b.entryRow) }

// FreezeShuffled is Freeze with the entry order randomly permuted first
// (seeded deterministically). Columns then hold their entries in a
// scrambled row order, defeating the cache-line reuse that Section 5.2's
// sorted layout provides — the "unsorted CSC" ablation. Note that row
// views then no longer preserve token insertion order.
func (b *Builder) FreezeShuffled(seed uint64) *Matrix {
	// xorshift-style shuffle without importing the rng package (avoids a
	// dependency cycle risk and keeps sparse self-contained).
	s := seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	for i := len(b.entryRow) - 1; i > 0; i-- {
		j := next(i + 1)
		b.entryRow[i], b.entryRow[j] = b.entryRow[j], b.entryRow[i]
		b.entryCol[i], b.entryCol[j] = b.entryCol[j], b.entryCol[i]
	}
	return b.freeze(false)
}

// Freeze builds the Matrix. The builder should not be reused afterwards.
//
// Entries are placed in CSC order sorted by (col, row) using two stable
// counting passes (sort by row, then by column), which is O(NNZ + D + V)
// and yields the within-column row ordering Section 5.2 requires.
func (b *Builder) Freeze() *Matrix { return b.freeze(true) }

func (b *Builder) freeze(sortRows bool) *Matrix {
	nnz := len(b.entryRow)
	m := &Matrix{
		Rows: b.rows, Cols: b.cols, Stride: b.stride,
		colStart: make([]int32, b.cols+1),
		rowID:    make([]int32, nnz),
		colID:    make([]int32, nnz),
		data:     make([]int32, nnz*b.stride),
		rowStart: make([]int32, b.rows+1),
		rowPtr:   make([]int32, nnz),
	}

	// Pass 1: stable counting sort of entry indices by row (skipped for
	// the unsorted-CSC ablation, where insertion order is used directly).
	rowCount := make([]int32, b.rows+1)
	for _, r := range b.entryRow {
		rowCount[r+1]++
	}
	for r := 0; r < b.rows; r++ {
		rowCount[r+1] += rowCount[r]
	}
	copy(m.rowStart, rowCount)
	byRow := make([]int32, nnz)
	if sortRows {
		next := make([]int32, b.rows)
		copy(next, rowCount[:b.rows])
		for i := 0; i < nnz; i++ {
			r := b.entryRow[i]
			byRow[next[r]] = int32(i)
			next[r]++
		}
	} else {
		for i := range byRow {
			byRow[i] = int32(i)
		}
	}

	// Pass 2: stable counting sort of byRow by column → CSC order with
	// rows ascending inside each column.
	colCount := make([]int32, b.cols+1)
	for _, c := range b.entryCol {
		colCount[c+1]++
	}
	for c := 0; c < b.cols; c++ {
		colCount[c+1] += colCount[c]
	}
	copy(m.colStart, colCount)
	nextC := make([]int32, b.cols)
	copy(nextC, colCount[:b.cols])
	for _, i := range byRow {
		c := b.entryCol[i]
		pos := nextC[c]
		nextC[c]++
		m.rowID[pos] = b.entryRow[i]
		m.colID[pos] = c
	}

	// Pass 3: PCSR pointers. Walk entries in row-major order; for each
	// row the CSC positions are discovered column by column.
	// Re-walk byRow and, for each entry, claim the next free CSC slot of
	// its column — but slots were just assigned in the same order, so we
	// can redo the scan with fresh per-column cursors.
	copy(nextC, colCount[:b.cols])
	nextR := make([]int32, b.rows)
	copy(nextR, m.rowStart[:b.rows])
	for _, i := range byRow {
		c := b.entryCol[i]
		r := b.entryRow[i]
		pos := nextC[c]
		nextC[c]++
		m.rowPtr[nextR[r]] = pos
		nextR[r]++
	}

	b.entryRow, b.entryCol = nil, nil
	return m
}

// NNZ returns the number of entries.
func (m *Matrix) NNZ() int { return len(m.rowID) }

// Payloads returns the backing payload array — NNZ()*Stride int32
// values in CSC entry order, the same storage the row and column views
// expose entry by entry. It exists for bulk state snapshot/restore:
// copying it out captures every entry's payload, and writing the same
// bytes back restores them, without touching the (immutable) structure
// arrays. Callers must not resize it.
func (m *Matrix) Payloads() []int32 { return m.data }

// ColView is the contiguous slice of a column's entries.
type ColView struct {
	m     *Matrix
	start int32
	n     int32
}

// Len returns the number of entries in the column.
func (v ColView) Len() int { return int(v.n) }

// Row returns the row id of the i-th entry (ascending in i).
func (v ColView) Row(i int) int32 { return v.m.rowID[v.start+int32(i)] }

// Data returns the mutable payload of the i-th entry.
func (v ColView) Data(i int) []int32 {
	s := (v.start + int32(i)) * int32(v.m.Stride)
	return v.m.data[s : s+int32(v.m.Stride)]
}

// Payload returns the column's payloads as one contiguous slice of
// Len()*Stride values — entry i occupies [i*Stride, (i+1)*Stride) — so
// a per-token loop can walk it without building a slice per entry.
func (v ColView) Payload() []int32 {
	s := int(v.m.Stride)
	return v.m.data[int(v.start)*s : int(v.start+v.n)*s]
}

// RowView is the indirect view of a row's entries, in the order they
// were added (Freeze keeps it; FreezeShuffled scrambles it).
type RowView struct {
	m     *Matrix
	start int32
	n     int32
}

// Len returns the number of entries in the row.
func (v RowView) Len() int { return int(v.n) }

// Col returns the column id of the i-th entry.
func (v RowView) Col(i int) int32 {
	return v.m.colID[v.m.rowPtr[v.start+int32(i)]]
}

// Data returns the mutable payload of the i-th entry. The access is
// indirect (through PCSR) into the CSC array.
func (v RowView) Data(i int) []int32 {
	s := v.m.rowPtr[v.start+int32(i)] * int32(v.m.Stride)
	return v.m.data[s : s+int32(v.m.Stride)]
}

// EntryIndex returns the CSC entry index of the row's i-th entry: its
// payload occupies Payloads()[idx*Stride : (idx+1)*Stride]. It lets
// row-partitioned serializers address a scratch copy of the payload
// array without going through the live Data view.
func (v RowView) EntryIndex(i int) int {
	return int(v.m.rowPtr[v.start+int32(i)])
}

// Entries returns the CSC entry indices of the row's entries, in column
// order: EntryIndex(i) for every i as one slice of the PCSR array. The
// payload of entry e occupies Payloads()[e*Stride : (e+1)*Stride].
// Callers must not modify it.
func (v RowView) Entries() []int32 { return v.m.rowPtr[v.start : v.start+v.n] }

// Column returns the view of column c.
func (m *Matrix) Column(c int) ColView {
	return ColView{m: m, start: m.colStart[c], n: m.colStart[c+1] - m.colStart[c]}
}

// RowOf returns the view of row r.
func (m *Matrix) RowOf(r int) RowView {
	return RowView{m: m, start: m.rowStart[r], n: m.rowStart[r+1] - m.rowStart[r]}
}

// VisitByColumn calls fn for every column in increasing column order.
// Entry payloads may be mutated through the view.
func (m *Matrix) VisitByColumn(fn func(col int, v ColView)) {
	for c := 0; c < m.Cols; c++ {
		fn(c, m.Column(c))
	}
}

// VisitByRow calls fn for every row in increasing row order.
func (m *Matrix) VisitByRow(fn func(row int, v RowView)) {
	for r := 0; r < m.Rows; r++ {
		fn(r, m.RowOf(r))
	}
}
