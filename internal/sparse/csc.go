package sparse

import (
	"fmt"
	"sort"

	"sketchsp/internal/dense"
)

// CSC is a compressed-sparse-column matrix, the paper's default input format
// (Algorithm 3 streams its columns). Row indices within a column are sorted
// ascending and unique.
type CSC struct {
	M, N   int
	ColPtr []int // length N+1
	RowIdx []int // length nnz
	Val    []float64
}

// NewCSC builds a CSC matrix from raw compressed arrays after validating
// structural invariants (monotone ColPtr, in-range sorted unique row
// indices).
func NewCSC(m, n int, colPtr, rowIdx []int, val []float64) (*CSC, error) {
	a := &CSC{M: m, N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Validate checks the CSC structural invariants.
func (a *CSC) Validate() error {
	if a.M < 0 || a.N < 0 {
		return fmt.Errorf("sparse: CSC negative dims %dx%d", a.M, a.N)
	}
	if len(a.ColPtr) != a.N+1 {
		return fmt.Errorf("sparse: CSC ColPtr len %d want %d", len(a.ColPtr), a.N+1)
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: CSC ColPtr[0]=%d want 0", a.ColPtr[0])
	}
	if len(a.RowIdx) != len(a.Val) {
		return fmt.Errorf("sparse: CSC len(RowIdx)=%d != len(Val)=%d", len(a.RowIdx), len(a.Val))
	}
	if a.ColPtr[a.N] != len(a.Val) {
		return fmt.Errorf("sparse: CSC ColPtr[N]=%d != nnz=%d", a.ColPtr[a.N], len(a.Val))
	}
	for j := 0; j < a.N; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: CSC ColPtr not monotone at col %d", j)
		}
		// Bounds must hold per column, not just at the endpoints: a ColPtr
		// like [0, k, ..., 0] is locally monotone at col 0 yet indexes past
		// the entry arrays before the decreasing step is ever reached.
		if a.ColPtr[j] < 0 || a.ColPtr[j+1] > len(a.RowIdx) {
			return fmt.Errorf("sparse: CSC ColPtr out of range at col %d", j)
		}
		prev := -1
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowIdx[p]
			if r < 0 || r >= a.M {
				return fmt.Errorf("sparse: CSC row index %d out of range in col %d", r, j)
			}
			if r <= prev {
				return fmt.Errorf("sparse: CSC unsorted/duplicate row %d in col %d", r, j)
			}
			prev = r
		}
	}
	return nil
}

func (a *CSC) sortAndDedup() {
	writeBase := 0
	newColPtr := make([]int, a.N+1)
	for j := 0; j < a.N; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		seg := cscColSorter{idx: a.RowIdx[lo:hi], val: a.Val[lo:hi]}
		sort.Sort(seg)
		// Sum duplicates while compacting toward writeBase.
		w := writeBase
		for p := lo; p < hi; p++ {
			if w > writeBase && a.RowIdx[w-1] == a.RowIdx[p] {
				a.Val[w-1] += a.Val[p]
				continue
			}
			a.RowIdx[w] = a.RowIdx[p]
			a.Val[w] = a.Val[p]
			w++
		}
		newColPtr[j+1] = w
		writeBase = w
	}
	a.ColPtr = newColPtr
	a.RowIdx = a.RowIdx[:writeBase]
	a.Val = a.Val[:writeBase]
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.Val) }

// Density returns nnz/(m·n); zero for empty matrices.
func (a *CSC) Density() float64 {
	if a.M == 0 || a.N == 0 {
		return 0
	}
	return float64(len(a.Val)) / (float64(a.M) * float64(a.N))
}

// At returns element (i, j) with a binary search over column j. Intended for
// tests and spot checks, not kernels.
func (a *CSC) At(i, j int) float64 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	seg := a.RowIdx[lo:hi]
	k := sort.SearchInts(seg, i)
	if k < len(seg) && seg[k] == i {
		return a.Val[lo+k]
	}
	return 0
}

// SlabNNZ returns nnz(A[:, j0:j1]), the number of stored entries in the
// vertical column slab [j0, j1). ColPtr is exactly the prefix sum of the
// per-column nonzero counts, so the answer is a two-load O(1) lookup — cheap
// enough that the nnz-aware task partitioner calls it per candidate slab
// during planning.
func (a *CSC) SlabNNZ(j0, j1 int) int {
	if j0 < 0 || j1 < j0 || j1 > a.N {
		panic(fmt.Sprintf("sparse: SlabNNZ [%d:%d] of %d cols", j0, j1, a.N))
	}
	return a.ColPtr[j1] - a.ColPtr[j0]
}

// ColView returns the row indices and values of column j (aliases storage).
func (a *CSC) ColView(j int) (rows []int, vals []float64) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowIdx[lo:hi], a.Val[lo:hi]
}

// Clone deep-copies the matrix.
func (a *CSC) Clone() *CSC {
	out := &CSC{
		M: a.M, N: a.N,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return out
}

// Scale multiplies every stored value by f in place.
func (a *CSC) Scale(f float64) {
	for i := range a.Val {
		a.Val[i] *= f
	}
}

// ColNorms returns the 2-norm of each column (used by the LSQR-D diagonal
// preconditioner).
func (a *CSC) ColNorms() []float64 {
	out := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		_, vals := a.ColView(j)
		out[j] = dense.Nrm2(vals)
	}
	return out
}

// ToDense materialises the matrix (tests and small examples only).
func (a *CSC) ToDense() *dense.Matrix {
	out := dense.NewMatrix(a.M, a.N)
	for j := 0; j < a.N; j++ {
		rows, vals := a.ColView(j)
		col := out.Col(j)
		for k, r := range rows {
			col[r] = vals[k]
		}
	}
	return out
}

// ToCSR converts to compressed sparse row.
func (a *CSC) ToCSR() *CSR {
	rowPtr, colIdx, val := a.rowArrays()
	return &CSR{M: a.M, N: a.N, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// rowArrays returns the CSR arrays of a, which are also the CSC arrays of
// Aᵀ: one counting pass and one scatter.
func (a *CSC) rowArrays() (rowPtr, colIdx []int, val []float64) {
	nnz := len(a.Val)
	rowPtr = make([]int, a.M+1)
	for _, r := range a.RowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < a.M; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx = make([]int, nnz)
	val = make([]float64, nnz)
	next := make([]int, a.M)
	copy(next, rowPtr[:a.M])
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowIdx[p]
			w := next[r]
			colIdx[w] = j
			val[w] = a.Val[p]
			next[r]++
		}
	}
	return rowPtr, colIdx, val
}

// Transpose returns Aᵀ in CSC form. Because transposing a CSC matrix yields
// its CSR arrays reinterpreted, this is a single counting pass.
func (a *CSC) Transpose() *CSC {
	rowPtr, colIdx, val := a.rowArrays()
	return &CSC{M: a.N, N: a.M, ColPtr: rowPtr, RowIdx: colIdx, Val: val}
}

// ColSlice returns the vertical slab A[:, j0:j1] as a new CSC matrix.
func (a *CSC) ColSlice(j0, j1 int) *CSC {
	if j0 < 0 || j1 < j0 || j1 > a.N {
		panic(fmt.Sprintf("sparse: ColSlice [%d:%d] of %d cols", j0, j1, a.N))
	}
	lo, hi := a.ColPtr[j0], a.ColPtr[j1]
	colPtr := make([]int, j1-j0+1)
	for j := j0; j <= j1; j++ {
		colPtr[j-j0] = a.ColPtr[j] - lo
	}
	return &CSC{
		M: a.M, N: j1 - j0,
		ColPtr: colPtr,
		RowIdx: a.RowIdx[lo:hi],
		Val:    a.Val[lo:hi],
	}
}

// MulVec computes y = A*x.
func (a *CSC) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.M {
		panic(fmt.Sprintf("sparse: MulVec dims A=%dx%d len(x)=%d len(y)=%d", a.M, a.N, len(x), len(y)))
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		rows, vals := a.ColView(j)
		for k, r := range rows {
			y[r] += vals[k] * xj
		}
	}
}

// MulVecT computes y = Aᵀ*x.
func (a *CSC) MulVecT(x, y []float64) {
	if len(x) != a.M || len(y) != a.N {
		panic(fmt.Sprintf("sparse: MulVecT dims A=%dx%d len(x)=%d len(y)=%d", a.M, a.N, len(x), len(y)))
	}
	for j := 0; j < a.N; j++ {
		rows, vals := a.ColView(j)
		var s float64
		for k, r := range rows {
			s += vals[k] * x[r]
		}
		y[j] = s
	}
}

// FrobeniusNorm returns ‖A‖_F.
func (a *CSC) FrobeniusNorm() float64 { return dense.Nrm2(a.Val) }

// MemoryBytes reports the CSC storage footprint (mirrors the paper's
// mem(A) column in Table VIII: 8-byte values, 8-byte indices here since Go
// ints are 64-bit on the target platforms).
func (a *CSC) MemoryBytes() int64 {
	return int64(len(a.Val))*8 + int64(len(a.RowIdx))*8 + int64(len(a.ColPtr))*8
}

// Dims returns (rows, cols), satisfying the lsqr.Operator interface.
func (a *CSC) Dims() (m, n int) { return a.M, a.N }
