// Package sparse implements the distributed sparse-matrix framework of
// the WarpLDA paper (Section 5): a D×V matrix of per-token entries,
// laid out once at initialization and then visited by row and by
// column during training.
//
// The data layout follows Section 5.2: per entry only the CSC
// (column-major) copy of its payload is stored, plus one pointer
// (PCSR) that lets row visits reach it by indirection; neither an
// entry's row nor its column is stored. Entries within each column are
// sorted by row id, so a row-order sweep touches every column's
// entries front to back and each fetched cache line is fully consumed
// before eviction. FromRows builds that layout straight from the rows,
// one pass counting and one placing; a row's column ids are whatever
// the caller passes for it (for WarpLDA, the document's words in the
// corpus).
//
// The package also provides the column partitioners of Section 5.3.2
// (greedy, static-random, dynamic-contiguous) and the imbalance index of
// Figure 4.
package sparse

import "fmt"

// Matrix is the frozen sparse matrix. Each entry carries Stride int32
// values of user data (for WarpLDA: the topic assignment plus M
// proposals). Build one with FromRows.
type Matrix struct {
	Rows, Cols, Stride int

	// CSC storage: entries are ordered by (column, row).
	colStart []int32 // len Cols+1; entry indices of each column
	data     []int32 // len NNZ*Stride; entry payloads in CSC order

	// PCSR: for each row, the CSC indices of its entries in the order
	// the row listed them.
	rowStart []int32 // len Rows+1
	rowPtr   []int32 // len NNZ; CSC index of each row entry
}

// FromRows lays out a rows×cols matrix whose row r holds one entry per
// value of row(r), in that order; every value must lie in [0, cols),
// and a repeated value is a repeated entry. Payloads start zeroed.
//
// row is called twice per row: one pass counts the column and row
// sizes, the next walks the rows in increasing order and gives each
// entry the next free slot of its column. So every column lists its
// entries in ascending row order, and every row keeps the order row
// gave. Per entry it allocates (Stride+1)·4 bytes; beyond that only
// the two offset arrays and one column cursor.
func FromRows(rows, cols, stride int, row func(r int) []int32) *Matrix {
	if rows < 0 || cols <= 0 || stride <= 0 {
		panic(fmt.Sprintf("sparse: FromRows(%d, %d, %d)", rows, cols, stride))
	}
	m := &Matrix{
		Rows: rows, Cols: cols, Stride: stride,
		colStart: make([]int32, cols+1),
		rowStart: make([]int32, rows+1),
	}
	for r := 0; r < rows; r++ {
		cs := row(r)
		m.rowStart[r+1] = m.rowStart[r] + int32(len(cs))
		for _, c := range cs {
			m.colStart[c+1]++
		}
	}
	for c := 0; c < cols; c++ {
		m.colStart[c+1] += m.colStart[c]
	}
	nnz := int(m.rowStart[rows])
	m.data = make([]int32, nnz*stride)
	m.rowPtr = make([]int32, nnz)
	next := append([]int32(nil), m.colStart[:cols]...)
	for r, e := 0, 0; r < rows; r++ {
		for _, c := range row(r) {
			m.rowPtr[e] = next[c]
			next[c]++
			e++
		}
	}
	return m
}

// Builder accumulates entries in any order before freezing them into a
// Matrix.
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

// Freeze builds the Matrix. The builder should not be reused afterwards.
//
// A stable counting sort groups the entries' columns by row, keeping
// the order they were added in; FromRows lays the groups out.
func (b *Builder) Freeze() *Matrix {
	// start[r+2] counts row r's entries; after the prefix sum
	// start[r+1] is row r's fill cursor, and once every entry is
	// placed, its end: row r is byRow[start[r]:start[r+1]].
	start := make([]int32, b.rows+2)
	for _, r := range b.entryRow {
		start[r+2]++
	}
	for r := 2; r < len(start); r++ {
		start[r] += start[r-1]
	}
	byRow := make([]int32, len(b.entryRow))
	for i, r := range b.entryRow {
		byRow[start[r+1]] = b.entryCol[i]
		start[r+1]++
	}
	b.entryRow, b.entryCol = nil, nil
	return FromRows(b.rows, b.cols, b.stride, func(r int) []int32 { return byRow[start[r]:start[r+1]] })
}

// NNZ returns the number of entries.
func (m *Matrix) NNZ() int { return len(m.rowPtr) }

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

// RowView is the indirect view of a row's entries, in the order the
// row listed them.
type RowView struct {
	m     *Matrix
	start int32
	n     int32
}

// Len returns the number of entries in the row.
func (v RowView) Len() int { return int(v.n) }

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

// Entries returns the CSC entry indices of the row's entries, in row
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
