package sparse

import (
	"fmt"
	"sort"
	"sync"
)

// BlockedCSR is the auxiliary data structure Algorithm 4 needs (§II-B2,
// §III-B): the columns of A are partitioned into vertical slabs, and each
// slab is stored in CSR so the kernel can walk the rows of the slab and
// perform rank-1 updates that reuse one generated column of S across an
// entire sparse row. The classic constructors cut slabs of uniform width
// BlockCols; NewBlockedCSRPartition accepts an arbitrary (e.g. nnz-balanced)
// column partition, in which case slab widths vary and ColStart is the
// source of truth.
type BlockedCSR struct {
	M, N      int
	BlockCols int    // nominal slab width (widest slab for non-uniform partitions)
	Blocks    []*CSR // one CSR of size M × width(k) per slab
	ColStart  []int  // ColStart[k] = first global column of slab k; len = len(Blocks)+1
}

// NumBlocks returns the number of vertical slabs.
func (b *BlockedCSR) NumBlocks() int { return len(b.Blocks) }

// NNZ returns the total number of stored entries across slabs.
func (b *BlockedCSR) NNZ() int {
	t := 0
	for _, blk := range b.Blocks {
		t += blk.NNZ()
	}
	return t
}

// MemoryBytes reports the total storage footprint including the per-block
// RowPtr arrays — the O(⌈n/b_n⌉·m) overhead §III-B calls memory intensive —
// and each slab's non-empty-row list.
func (b *BlockedCSR) MemoryBytes() int64 {
	var t int64
	for _, blk := range b.Blocks {
		t += blk.MemoryBytes()
	}
	return t + int64(len(b.ColStart))*8
}

// At returns element (i, j); for tests. The slab holding column j is found
// by binary search over ColStart, which stays correct when slab widths vary.
func (b *BlockedCSR) At(i, j int) float64 {
	k := sort.SearchInts(b.ColStart, j+1) - 1
	return b.Blocks[k].At(i, j-b.ColStart[k])
}

// NewBlockedCSR converts a CSC matrix into the blocked-CSR structure
// sequentially with uniform slab width blockCols. Per §III-B the cost is
// O(⌈n/b_n⌉·m + nnz(A)): for each slab we count entries per row (O(m)
// zeroing per slab) and then scatter.
func NewBlockedCSR(a *CSC, blockCols int) *BlockedCSR {
	if blockCols <= 0 {
		panic(fmt.Sprintf("sparse: NewBlockedCSR blockCols=%d", blockCols))
	}
	return NewBlockedCSRPartition(a, UniformColSplit(a.N, blockCols), 1)
}

// NewBlockedCSRParallel builds the uniform-width structure with one goroutine
// per slab group, matching the parallel construction of §III-B
// (O(⌈n/(T·b_n)⌉·m + max_t nnz(A_t)) with T workers).
func NewBlockedCSRParallel(a *CSC, blockCols, workers int) *BlockedCSR {
	if blockCols <= 0 {
		panic(fmt.Sprintf("sparse: NewBlockedCSRParallel blockCols=%d", blockCols))
	}
	return NewBlockedCSRPartition(a, UniformColSplit(a.N, blockCols), workers)
}

// UniformColSplit returns the uniform column partition of width blockCols:
// boundaries {0, b_n, 2·b_n, …, n} (the last slab may be narrower). It is the
// grid the classic constructors cut, and the starting point the nnz-aware
// planner refines.
func UniformColSplit(n, blockCols int) []int {
	if blockCols <= 0 {
		panic(fmt.Sprintf("sparse: UniformColSplit blockCols=%d", blockCols))
	}
	if n <= 0 {
		return []int{0}
	}
	nb := (n + blockCols - 1) / blockCols
	cs := make([]int, nb+1)
	for k := 1; k < nb; k++ {
		cs[k] = k * blockCols
	}
	cs[nb] = n
	return cs
}

// NewBlockedCSRPartition converts a CSC matrix into blocked CSR along an
// arbitrary column partition: colStart must begin at 0, end at a.N, and be
// strictly increasing. Slab k covers columns [colStart[k], colStart[k+1]).
// With workers > 1 slabs convert concurrently; the per-slab nnz needed to
// size each CSR comes from the ColPtr prefix sum (CSC.SlabNNZ), so no
// counting pass over the entries is re-paid.
func NewBlockedCSRPartition(a *CSC, colStart []int, workers int) *BlockedCSR {
	nb := len(colStart) - 1
	if nb < 0 || colStart[0] != 0 || colStart[nb] != a.N {
		panic(fmt.Sprintf("sparse: NewBlockedCSRPartition bad partition %v for n=%d", colStart, a.N))
	}
	maxWidth := 0
	for k := 0; k < nb; k++ {
		w := colStart[k+1] - colStart[k]
		if w <= 0 {
			panic(fmt.Sprintf("sparse: NewBlockedCSRPartition non-increasing boundary at slab %d", k))
		}
		if w > maxWidth {
			maxWidth = w
		}
	}
	out := &BlockedCSR{
		M: a.M, N: a.N, BlockCols: maxWidth,
		Blocks:   make([]*CSR, nb),
		ColStart: append([]int(nil), colStart...),
	}
	if workers <= 1 || nb <= 1 {
		for k := 0; k < nb; k++ {
			out.Blocks[k] = slabToCSR(a, out.ColStart[k], out.ColStart[k+1])
		}
		return out
	}
	var wg sync.WaitGroup
	work := make(chan int)
	if workers > nb {
		workers = nb
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				out.Blocks[k] = slabToCSR(a, out.ColStart[k], out.ColStart[k+1])
			}
		}()
	}
	for k := 0; k < nb; k++ {
		work <- k
	}
	close(work)
	wg.Wait()
	return out
}

// slabToCSR transposes the column slab A[:, j0:j1] into CSR. Columns are
// visited in ascending order, so within each row the column indices come out
// sorted — the CSR invariant holds by construction. It records the slab's
// non-empty rows and their entry offsets, which Algorithm 4 walks: a thin
// slab of a tall matrix touches few of its m rows.
func slabToCSR(a *CSC, j0, j1 int) *CSR {
	m := a.M
	width := j1 - j0
	nnz := a.SlabNNZ(j0, j1)
	lo := a.ColPtr[j0]
	rowPtr := make([]int, m+1)
	for p := lo; p < lo+nnz; p++ {
		rowPtr[a.RowIdx[p]+1]++
	}
	for i := 0; i < m; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, m)
	copy(next, rowPtr[:m])
	for j := j0; j < j1; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowIdx[p]
			w := next[r]
			colIdx[w] = j - j0
			val[w] = a.Val[p]
			next[r]++
		}
	}
	return (&CSR{M: m, N: width, RowPtr: rowPtr, ColIdx: colIdx, Val: val}).recordRows()
}

// ToCSC reassembles the blocked structure into one CSC matrix (tests).
func (b *BlockedCSR) ToCSC() *CSC {
	coo := NewCOO(b.M, b.N, b.NNZ())
	for k, blk := range b.Blocks {
		base := b.ColStart[k]
		for i := 0; i < blk.M; i++ {
			cols, vals := blk.RowView(i)
			for t, c := range cols {
				coo.Append(i, base+c, vals[t])
			}
		}
	}
	return coo.ToCSC()
}
