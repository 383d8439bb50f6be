package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/blockreorg/blockreorg/internal/parallel"
)

// CSR is a matrix in compressed sparse row format.
//
// Ptr has length Rows+1; the column indices and values of row i live in
// Idx[Ptr[i]:Ptr[i+1]] and Val[Ptr[i]:Ptr[i+1]]. Entries within a row are
// kept sorted by column index and contain no duplicates (see Validate).
type CSR struct {
	Rows, Cols int
	Ptr        []int
	Idx        []int
	Val        []float64
}

// NewCSR returns an empty Rows×Cols matrix in CSR format.
func NewCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, Ptr: make([]int, rows+1)}
}

// NewCSRWithRowSizes returns a rows×cols matrix with storage preallocated
// for exactly rowNNZ[i] entries in row i and the pointer array already
// finalized. The entries themselves are zero; the caller must fill every
// row (through the slices Row returns) before the matrix is used. It is
// the sanctioned way to build a CSR out of row order — e.g. from parallel
// workers that own disjoint row ranges and know their populations up
// front — without touching Ptr/Idx/Val directly.
func NewCSRWithRowSizes(rows, cols int, rowNNZ []int) *CSR {
	m := NewCSR(rows, cols)
	for i := 0; i < rows; i++ {
		m.Ptr[i+1] = m.Ptr[i] + rowNNZ[i]
	}
	m.Idx = make([]int, m.Ptr[rows])
	m.Val = make([]float64, m.Ptr[rows])
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Idx) }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.Ptr[i+1] - m.Ptr[i] }

// Row returns the column indices and values of row i. The returned slices
// alias the matrix storage and must not be modified structurally.
func (m *CSR) Row(i int) (idx []int, val []float64) {
	lo, hi := m.Ptr[i], m.Ptr[i+1]
	return m.Idx[lo:hi], m.Val[lo:hi]
}

// AppendRow appends the entries of row i during top-to-bottom construction
// of a matrix created with NewCSR: idx/val (sorted, duplicate-free, equal
// length) become the row's storage and the pointer array is advanced. Rows
// must be appended in ascending order with no gaps; misuse is caught by
// Validate. It is the sanctioned way to build a CSR incrementally without
// touching Ptr/Idx/Val directly (the blockreorg-vet rawindex rule).
func (m *CSR) AppendRow(i int, idx []int, val []float64) {
	m.Idx = append(m.Idx, idx...)
	m.Val = append(m.Val, val...)
	m.Ptr[i+1] = len(m.Idx)
}

// Fill sets every stored value to v in place, keeping the structure.
func (m *CSR) Fill(v float64) {
	for k := range m.Val {
		m.Val[k] = v
	}
}

// At returns the value at (i, j), or zero if the entry is not stored.
// Entries within the row must be sorted (binary search is used).
func (m *CSR) At(i, j int) float64 {
	idx, val := m.Row(i)
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return val[k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows: m.Rows, Cols: m.Cols,
		Ptr: append([]int(nil), m.Ptr...),
		Idx: append([]int(nil), m.Idx...),
		Val: append([]float64(nil), m.Val...),
	}
	return c
}

// Validate checks the structural invariants of the CSR format: monotone
// pointer array, in-range sorted column indices without duplicates, and
// consistent slice lengths. It returns the first violation found.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", m.Rows, m.Cols)
	}
	if len(m.Ptr) != m.Rows+1 {
		return fmt.Errorf("sparse: ptr length %d, want %d", len(m.Ptr), m.Rows+1)
	}
	if len(m.Idx) != len(m.Val) {
		return fmt.Errorf("sparse: idx length %d != val length %d", len(m.Idx), len(m.Val))
	}
	if m.Ptr[0] != 0 {
		return fmt.Errorf("sparse: ptr[0] = %d, want 0", m.Ptr[0])
	}
	if m.Ptr[m.Rows] != len(m.Idx) {
		return fmt.Errorf("sparse: ptr[rows] = %d, want nnz %d", m.Ptr[m.Rows], len(m.Idx))
	}
	for i := 0; i < m.Rows; i++ {
		if m.Ptr[i] > m.Ptr[i+1] {
			return fmt.Errorf("sparse: ptr not monotone at row %d", i)
		}
	}
	for i := 0; i < m.Rows; i++ {
		prev := -1
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			j := m.Idx[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d not strictly sorted at position %d", i, k)
			}
			prev = j
		}
	}
	return nil
}

// Equal reports whether m and o have the same shape and stored structure and
// whether all values agree within tol (absolute difference).
func (m *CSR) Equal(o *CSR, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || len(m.Idx) != len(o.Idx) {
		return false
	}
	for i := range m.Ptr {
		if m.Ptr[i] != o.Ptr[i] {
			return false
		}
	}
	for k := range m.Idx {
		if m.Idx[k] != o.Idx[k] {
			return false
		}
		if d := m.Val[k] - o.Val[k]; d > tol || d < -tol {
			return false
		}
	}
	return true
}

// Identical reports whether m and o are the same matrix bit for bit: the
// same shape, Ptr and Idx, and the same IEEE 754 bits in every value.
// Unlike Equal(o, 0) it tells −0 from +0 and never matches a NaN to a
// number, so it is the check behind any bit-identity claim.
func (m *CSR) Identical(o *CSR) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols ||
		!slices.Equal(m.Ptr, o.Ptr) || !slices.Equal(m.Idx, o.Idx) || len(m.Val) != len(o.Val) {
		return false
	}
	for k, v := range m.Val {
		if math.Float64bits(v) != math.Float64bits(o.Val[k]) {
			return false
		}
	}
	return true
}

// MaxRowNNZ returns the largest row population, 0 for an empty matrix.
func (m *CSR) MaxRowNNZ() int {
	max := 0
	for i := 0; i < m.Rows; i++ {
		if n := m.RowNNZ(i); n > max {
			max = n
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm of the matrix.
func (m *CSR) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Val {
		s += v * v
	}
	return math.Sqrt(s)
}

// Scale multiplies every stored value by f in place.
func (m *CSR) Scale(f float64) {
	for k := range m.Val {
		m.Val[k] *= f
	}
}

// SortRows re-sorts every row by column index, merging duplicate entries by
// addition. It is used after bulk construction from unsorted input.
func (m *CSR) SortRows() {
	outIdx := m.Idx[:0]
	outVal := m.Val[:0]
	newPtr := make([]int, m.Rows+1)
	var bufIdx []int
	var bufVal []float64
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.Ptr[i], m.Ptr[i+1]
		bufIdx = append(bufIdx[:0], m.Idx[lo:hi]...)
		bufVal = append(bufVal[:0], m.Val[lo:hi]...)
		outIdx, outVal = CombineRow(bufIdx, bufVal, outIdx, outVal)
		newPtr[i+1] = len(outIdx)
	}
	m.Idx = outIdx
	m.Val = outVal
	m.Ptr = newPtr
}

// sortRowEntriesRun is the run width sortRowEntries insertion-sorts
// directly; longer inputs go through the bottom-up merge.
const sortRowEntriesRun = 32

// sortRowEntries co-sorts one row's (column, value) pairs by column index,
// swapping idx and val in lockstep: insertion sort for short rows, a
// bottom-up mergesort with arena scratch above sortRowEntriesRun entries.
// sort.Sort would box the pair into an interface and cost one heap
// allocation per merged row.
//
// The sort is STABLE, and that is a correctness property, not a detail:
// CombineRow sums duplicate columns in post-sort order, so stability makes
// that order the original stream order — exactly the order the dense
// accumulator adds in. Bit-identity of the sort strategy (and of
// core.Plan.Execute's COO conversion) with the dense oracle rests on it.
func sortRowEntries(idx []int, val []float64) {
	n := len(idx)
	if n <= sortRowEntriesRun {
		insertionSortRowEntries(idx, val)
		return
	}
	// Insertion-sort fixed-width runs, then merge them bottom-up. Both
	// stages are stable, so equal columns keep their stream order.
	for lo := 0; lo < n; lo += sortRowEntriesRun {
		hi := lo + sortRowEntriesRun
		if hi > n {
			hi = n
		}
		insertionSortRowEntries(idx[lo:hi], val[lo:hi])
	}
	tmpIdx := parallel.GetInts(n)
	tmpVal := parallel.GetFloats(n)
	srcI, srcV := idx, val
	dstI, dstV := tmpIdx, tmpVal
	for width := sortRowEntriesRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeRowEntries(srcI, srcV, dstI, dstV, lo, mid, hi)
		}
		srcI, srcV, dstI, dstV = dstI, dstV, srcI, srcV
	}
	if &srcI[0] != &idx[0] {
		copy(idx, srcI)
		copy(val, srcV)
	}
	parallel.PutInts(tmpIdx)
	parallel.PutFloats(tmpVal)
}

// insertionSortRowEntries is the stable base case of sortRowEntries.
func insertionSortRowEntries(idx []int, val []float64) {
	for i := 1; i < len(idx); i++ {
		ci, cv := idx[i], val[i]
		j := i - 1
		for j >= 0 && idx[j] > ci {
			idx[j+1], val[j+1] = idx[j], val[j]
			j--
		}
		idx[j+1], val[j+1] = ci, cv
	}
}

// mergeRowEntries merges the sorted runs src[lo:mid] and src[mid:hi] into
// dst[lo:hi], taking from the left run on equal columns (stability).
func mergeRowEntries(srcI []int, srcV []float64, dstI []int, dstV []float64, lo, mid, hi int) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		if i < mid && (j >= hi || srcI[i] <= srcI[j]) {
			dstI[k] = srcI[i]
			dstV[k] = srcV[i]
			i++
		} else {
			dstI[k] = srcI[j]
			dstV[k] = srcV[j]
			j++
		}
	}
}

// CombineRow sorts one row's (idx, val) entry pairs in place by column
// index, merges duplicate columns by addition starting from +0 (so a
// column holding only -0 entries merges to +0), and appends the combined
// entries to outIdx/outVal, returning the extended slices.
//
// It is the single merge primitive behind SortRows (and therefore every
// COO→CSR conversion) and the sort accumulator strategy. The underlying sort is stable, so duplicate
// columns are summed in their original stream order — the same addition
// order as the dense accumulator, which is what makes every
// merge path agree to the last bit.
func CombineRow(idx []int, val []float64, outIdx []int, outVal []float64) ([]int, []float64) {
	sortRowEntries(idx, val)
	for k := 0; k < len(idx); {
		j := idx[k]
		v := 0 + val[k]
		k++
		for k < len(idx) && idx[k] == j {
			v += val[k]
			k++
		}
		outIdx = append(outIdx, j)
		outVal = append(outVal, v)
	}
	return outIdx, outVal
}

// csrFromRows assembles a CSR matrix from per-row index/value slices.
// The rows must already be sorted and duplicate-free.
func csrFromRows(rows, cols int, idx [][]int, val [][]float64) *CSR {
	m := NewCSR(rows, cols)
	nnz := 0
	for i := 0; i < rows; i++ {
		nnz += len(idx[i])
	}
	m.Idx = make([]int, 0, nnz)
	m.Val = make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		m.Idx = append(m.Idx, idx[i]...)
		m.Val = append(m.Val, val[i]...)
		m.Ptr[i+1] = len(m.Idx)
	}
	return m
}
