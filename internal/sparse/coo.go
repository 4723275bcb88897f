// Package sparse implements the sparse-matrix substrate the paper's kernels
// run on: COO for construction, CSC (the paper's default input format for
// Algorithm 3), CSR (the "MKL-style" baseline format), and Algorithm 4's
// doubly compressed column slabs, along with conversions,
// MatrixMarket I/O, and the synthetic matrix generators used to stand in for
// the SuiteSparse collection matrices of Tables I and VIII.
package sparse

import "fmt"

// COO is a coordinate-format sparse matrix used as a construction buffer.
// Duplicate entries are summed when converting to CSC/CSR.
type COO struct {
	M, N int
	Row  []int
	Col  []int
	Val  []float64
}

// NewCOO creates an empty m×n COO matrix with capacity for nnzHint entries.
func NewCOO(m, n, nnzHint int) *COO {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", m, n))
	}
	return &COO{
		M: m, N: n,
		Row: make([]int, 0, nnzHint),
		Col: make([]int, 0, nnzHint),
		Val: make([]float64, 0, nnzHint),
	}
}

// Append adds entry (i, j, v). Out-of-range indices panic; zero values are
// kept (callers that want them dropped should filter first).
func (c *COO) Append(i, j int, v float64) {
	if i < 0 || i >= c.M || j < 0 || j >= c.N {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of %dx%d", i, j, c.M, c.N))
	}
	c.Row = append(c.Row, i)
	c.Col = append(c.Col, j)
	c.Val = append(c.Val, v)
}

// NNZ returns the number of stored entries (before duplicate summing).
func (c *COO) NNZ() int { return len(c.Val) }

// ToCSC converts to compressed sparse column, sorting row indices within
// each column and summing duplicates.
func (c *COO) ToCSC() *CSC {
	nnz := len(c.Val)
	colCount := make([]int, c.N+1)
	for _, j := range c.Col {
		colCount[j+1]++
	}
	for j := 0; j < c.N; j++ {
		colCount[j+1] += colCount[j]
	}
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, c.N)
	copy(next, colCount[:c.N])
	for k := 0; k < nnz; k++ {
		j := c.Col[k]
		p := next[j]
		rowIdx[p] = c.Row[k]
		val[p] = c.Val[k]
		next[j]++
	}
	out := &CSC{M: c.M, N: c.N, ColPtr: colCount, RowIdx: rowIdx, Val: val}
	out.sortAndDedup()
	return out
}

// ToCSR converts to compressed sparse row, sorting column indices within
// each row and summing duplicates.
func (c *COO) ToCSR() *CSR {
	return c.ToCSC().ToCSR()
}

type cscColSorter struct {
	idx []int
	val []float64
}

func (s cscColSorter) Len() int           { return len(s.idx) }
func (s cscColSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s cscColSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}
