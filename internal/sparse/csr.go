package sparse

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sketchsp/internal/dense"
)

// CSR is a compressed-sparse-row matrix. It backs the "MKL-style" baseline
// (MKL only supports sparse-times-dense, so the paper stores A in CSR and S
// row-major and computes the transposed product) and the per-block storage
// of the BlockedCSR structure used by Algorithm 4.
type CSR struct {
	M, N   int
	RowPtr []int // length M+1
	ColIdx []int // length nnz
	Val    []float64

	rows atomic.Pointer[rowIndex] // the non-empty rows; see NonEmptyRows
}

// rowIndex lists the rows of a CSR that hold an entry, ascending, with
// their entry offsets: row rows[i]'s entries are ColIdx[off[i]:off[i+1]].
// The entries of consecutive non-empty rows are contiguous, so off has
// one element more than rows and off[i+1] is also where rows[i+1] starts.
type rowIndex struct{ rows, off []int }

// NewCSR builds a CSR matrix from raw arrays after validating invariants.
func NewCSR(m, n int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	a := &CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a.recordRows(), nil
}

// recordRows records a's non-empty rows and returns a. Every constructor
// calls it once the arrays are final.
func (a *CSR) recordRows() *CSR {
	a.rows.Store(newRowIndex(a.RowPtr))
	return a
}

// newRowIndex scans rowPtr for the rows that hold an entry.
func newRowIndex(rowPtr []int) *rowIndex {
	n := 0
	for i := 1; i < len(rowPtr); i++ {
		if rowPtr[i] > rowPtr[i-1] {
			n++
		}
	}
	x := &rowIndex{rows: make([]int, 0, n), off: make([]int, 0, n+1)}
	for i := 1; i < len(rowPtr); i++ {
		if rowPtr[i] > rowPtr[i-1] {
			x.rows = append(x.rows, i-1)
			x.off = append(x.off, rowPtr[i-1])
		}
	}
	nnz := 0
	if len(rowPtr) > 0 {
		nnz = rowPtr[len(rowPtr)-1]
	}
	x.off = append(x.off, nnz)
	return x
}

// NonEmptyRows returns the rows holding at least one entry, ascending, and
// their entry offsets: row rows[i]'s column indices and values are
// ColIdx[off[i]:off[i+1]] and Val[off[i]:off[i+1]], and len(off) =
// len(rows)+1. Both alias storage. Algorithm 4 walks these lists rather
// than all M rows of a slab and the full-length RowPtr: a thin slab of a
// tall matrix touches few of its rows. The constructors record them; a
// CSR assembled by hand gets them on its first call, once.
func (a *CSR) NonEmptyRows() (rows, off []int) {
	x := a.rows.Load()
	if x == nil {
		x = newRowIndex(a.RowPtr)
		a.rows.CompareAndSwap(nil, x)
	}
	return x.rows, x.off
}

// Validate checks the CSR structural invariants.
func (a *CSR) Validate() error {
	if a.M < 0 || a.N < 0 {
		return fmt.Errorf("sparse: CSR negative dims %dx%d", a.M, a.N)
	}
	if len(a.RowPtr) != a.M+1 {
		return fmt.Errorf("sparse: CSR RowPtr len %d want %d", len(a.RowPtr), a.M+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: CSR RowPtr[0]=%d want 0", a.RowPtr[0])
	}
	if len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: CSR len(ColIdx)=%d != len(Val)=%d", len(a.ColIdx), len(a.Val))
	}
	if a.RowPtr[a.M] != len(a.Val) {
		return fmt.Errorf("sparse: CSR RowPtr[M]=%d != nnz=%d", a.RowPtr[a.M], len(a.Val))
	}
	for i := 0; i < a.M; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: CSR RowPtr not monotone at row %d", i)
		}
		prev := -1
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := a.ColIdx[p]
			if c < 0 || c >= a.N {
				return fmt.Errorf("sparse: CSR col index %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("sparse: CSR unsorted/duplicate col %d in row %d", c, i)
			}
			prev = c
		}
	}
	if x := a.rows.Load(); x != nil {
		return x.check(a.RowPtr)
	}
	return nil
}

// check reports whether x is the non-empty-row index of rowPtr.
func (x *rowIndex) check(rowPtr []int) error {
	if len(x.off) != len(x.rows)+1 {
		return fmt.Errorf("sparse: CSR %d non-empty rows with %d offsets", len(x.rows), len(x.off))
	}
	k := 0
	for i := 0; i+1 < len(rowPtr); i++ {
		if rowPtr[i+1] == rowPtr[i] {
			continue
		}
		if k == len(x.rows) || x.rows[k] != i || x.off[k] != rowPtr[i] {
			return fmt.Errorf("sparse: CSR non-empty row %d not recorded at its offset %d", i, rowPtr[i])
		}
		k++
	}
	if k != len(x.rows) || x.off[k] != rowPtr[len(rowPtr)-1] {
		return fmt.Errorf("sparse: CSR records %d non-empty rows ending at %d, RowPtr has %d ending at %d",
			len(x.rows), x.off[len(x.off)-1], k, rowPtr[len(rowPtr)-1])
	}
	return nil
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// At returns element (i, j); for tests and spot checks.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	seg := a.ColIdx[lo:hi]
	k := sort.SearchInts(seg, j)
	if k < len(seg) && seg[k] == j {
		return a.Val[lo+k]
	}
	return 0
}

// RowView returns the column indices and values of row i (aliases storage).
func (a *CSR) RowView(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// ToCSC converts to compressed sparse column.
func (a *CSR) ToCSC() *CSC {
	nnz := len(a.Val)
	colPtr := make([]int, a.N+1)
	for _, c := range a.ColIdx {
		colPtr[c+1]++
	}
	for j := 0; j < a.N; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, a.N)
	copy(next, colPtr[:a.N])
	for i := 0; i < a.M; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := a.ColIdx[p]
			w := next[c]
			rowIdx[w] = i
			val[w] = a.Val[p]
			next[c]++
		}
	}
	return &CSC{M: a.M, N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// ToDense materialises the matrix (tests and small examples only).
func (a *CSR) ToDense() *dense.Matrix {
	out := dense.NewMatrix(a.M, a.N)
	for i := 0; i < a.M; i++ {
		cols, vals := a.RowView(i)
		for k, c := range cols {
			out.Set(i, c, vals[k])
		}
	}
	return out
}

// MulVec computes y = A*x.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.M {
		panic(fmt.Sprintf("sparse: CSR MulVec dims A=%dx%d len(x)=%d len(y)=%d", a.M, a.N, len(x), len(y)))
	}
	for i := 0; i < a.M; i++ {
		cols, vals := a.RowView(i)
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
}

// MemoryBytes reports the CSR storage footprint in bytes, the recorded
// non-empty rows and their offsets included.
func (a *CSR) MemoryBytes() int64 {
	t := int64(len(a.Val))*8 + int64(len(a.ColIdx))*8 + int64(len(a.RowPtr))*8
	if x := a.rows.Load(); x != nil {
		t += int64(len(x.rows)+len(x.off)) * 8
	}
	return t
}

// MulVecT computes y = Aᵀ*x.
func (a *CSR) MulVecT(x, y []float64) {
	if len(x) != a.M || len(y) != a.N {
		panic(fmt.Sprintf("sparse: CSR MulVecT dims A=%dx%d len(x)=%d len(y)=%d", a.M, a.N, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < a.M; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		cols, vals := a.RowView(i)
		for k, c := range cols {
			y[c] += vals[k] * xi
		}
	}
}

// Dims returns (rows, cols), satisfying the lsqr.Operator interface.
func (a *CSR) Dims() (m, n int) { return a.M, a.N }
