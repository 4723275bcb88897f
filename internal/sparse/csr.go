package sparse

import (
	"fmt"
	"sort"

	"sketchsp/internal/dense"
)

// CSR is a compressed-sparse-row matrix. It backs the "MKL-style" baseline
// (MKL only supports sparse-times-dense, so the paper stores A in CSR and S
// row-major and computes the transposed product).
type CSR struct {
	M, N   int
	RowPtr []int // length M+1
	ColIdx []int // length nnz
	Val    []float64
}

// NewCSR builds a CSR matrix from raw arrays after validating invariants.
func NewCSR(m, n int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	a := &CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
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

// MemoryBytes reports the CSR storage footprint in bytes.
func (a *CSR) MemoryBytes() int64 {
	return int64(len(a.Val))*8 + int64(len(a.ColIdx))*8 + int64(len(a.RowPtr))*8
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
