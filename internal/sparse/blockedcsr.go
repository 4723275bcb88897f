package sparse

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// BlockedCSR is the auxiliary data structure Algorithm 4 needs (§II-B2,
// §III-B): the columns of A are partitioned into vertical slabs, and each
// slab is stored by rows so the kernel can walk the rows of the slab and
// perform rank-1 updates that reuse one generated column of S across an
// entire sparse row. Slab widths follow the column partition the planner
// chose (uniform or nnz-balanced); ColStart is the source of truth.
type BlockedCSR struct {
	M, N     int
	Blocks   []*Slab // one M × width(k) slab per column range
	ColStart []int   // ColStart[k] = first global column of slab k; len = len(Blocks)+1
}

// Slab is one vertical slab in doubly compressed sparse row form (DCSR,
// Buluç & Gilbert's hypersparse format): only the rows that hold an entry
// are stored, so a thin slab of a tall matrix costs O(nnz) memory, not the
// m-long row pointer array of CSR. Row Rows[i]'s slab-local column indices
// and values are ColIdx[Off[i]:Off[i+1]] and Val[Off[i]:Off[i+1]].
type Slab struct {
	M, N   int
	Rows   []int // the rows holding an entry, ascending
	Off    []int // entry offsets, len(Rows)+1; Off[0] = 0, Off[len(Rows)] = nnz
	ColIdx []int // ascending within each row
	Val    []float64
}

// NNZ returns the number of stored entries.
func (s *Slab) NNZ() int { return len(s.Val) }

// MemoryBytes reports the slab's storage footprint in bytes.
func (s *Slab) MemoryBytes() int64 {
	return int64(len(s.Rows)+len(s.Off)+len(s.ColIdx)+len(s.Val)) * 8
}

// At returns element (i, j); for tests and spot checks.
func (s *Slab) At(i, j int) float64 {
	r, ok := slices.BinarySearch(s.Rows, i)
	if !ok {
		return 0
	}
	lo, hi := s.Off[r], s.Off[r+1]
	if k, ok := slices.BinarySearch(s.ColIdx[lo:hi], j); ok {
		return s.Val[lo+k]
	}
	return 0
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

// MemoryBytes reports the total storage footprint: O(nnz) per slab, with
// no m term, since a slab stores its non-empty rows only. §III-B's
// O(⌈n/b_n⌉·m) overhead was that of per-slab CSR row pointers.
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
	k, _ := slices.BinarySearch(b.ColStart, j+1)
	return b.Blocks[k-1].At(i, j-b.ColStart[k-1])
}

// UniformColSplit returns the uniform column partition of width blockCols:
// boundaries {0, b_n, 2·b_n, …, n} (the last slab may be narrower). It is the
// grid of the paper's blocking, and the starting point the nnz-aware
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

// NewBlockedCSRPartition converts a CSC matrix into blocked slabs along a
// column partition: colStart must begin at 0, end at a.N, and be strictly
// increasing. Slab k covers columns [colStart[k], colStart[k+1]). With
// workers > 1 slabs convert concurrently, the parallel construction of
// §III-B. The cost is O(nnz·⌈log₂m/8⌉ + n) work and O(nnz) memory: no
// array or loop has length m.
func NewBlockedCSRPartition(a *CSC, colStart []int, workers int) *BlockedCSR {
	nb := len(colStart) - 1
	if nb < 0 || colStart[0] != 0 || colStart[nb] != a.N {
		panic(fmt.Sprintf("sparse: NewBlockedCSRPartition bad partition %v for n=%d", colStart, a.N))
	}
	for k := 0; k < nb; k++ {
		if colStart[k+1] <= colStart[k] {
			panic(fmt.Sprintf("sparse: NewBlockedCSRPartition non-increasing boundary at slab %d", k))
		}
	}
	maxNNZ := maxSlabNNZ(a, colStart)
	out := &BlockedCSR{
		M: a.M, N: a.N,
		Blocks:   make([]*Slab, nb),
		ColStart: append([]int(nil), colStart...),
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for range max(1, min(workers, nb)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newRowSorter(maxNNZ)
			for k := range work {
				out.Blocks[k] = s.slab(a, colStart[k], colStart[k+1])
			}
		}()
	}
	for k := range nb {
		work <- k
	}
	close(work)
	wg.Wait()
	return out
}

// SlabRows returns the number of non-empty slab rows over the column
// partition colStart: Σ_k (rows of A[:, colStart[k]:colStart[k+1]) that
// hold an entry), the number of columns of S Algorithm 4 loads per block
// row. It groups rows the way the conversion does, at the same cost.
func SlabRows(a *CSC, colStart []int) int {
	maxNNZ := maxSlabNNZ(a, colStart)
	s, ord := &rowSorter{tmp: make([]int, maxNNZ)}, make([]int, maxNNZ)
	t := 0
	for k := 0; k+1 < len(colStart); k++ {
		t += runs(s.sortRows(a, colStart[k], colStart[k+1], ord))
	}
	return t
}

// maxSlabNNZ returns the largest nnz of a slab of the partition colStart.
func maxSlabNNZ(a *CSC, colStart []int) int {
	n := 0
	for k := 0; k+1 < len(colStart); k++ {
		n = max(n, a.SlabNNZ(colStart[k], colStart[k+1]))
	}
	return n
}

// runs returns the number of runs of equal values in sorted.
func runs(sorted []int) int {
	c, prev := 0, -1
	for _, r := range sorted {
		if r != prev {
			c++
		}
		prev = r
	}
	return c
}

// rowSorter is one conversion worker's scratch for slabs of up to n
// entries, reused across its slabs.
type rowSorter struct{ tmp, col []int }

func newRowSorter(n int) *rowSorter {
	return &rowSorter{tmp: make([]int, n), col: make([]int, n)}
}

// sortRows sorts the entries of the column slab A[:, j0:j1] by row. It
// fills ord[:nnz] with their positions in the slab, counted in column
// order, and returns their rows in the sorted order (aliasing s's
// scratch). An LSD radix sort over the bytes of the row index below m does
// the work, skipping the bytes all rows share. The sort is stable, so the
// entries of a row stay in column order.
func (s *rowSorter) sortRows(a *CSC, j0, j1 int, ord []int) []int {
	lo, hi := a.ColPtr[j0], a.ColPtr[j1]
	rows := a.RowIdx[lo:hi]
	src, dst := ord[:hi-lo], s.tmp[:hi-lo]
	for q := range src {
		src[q] = q
	}
	for shift := 0; len(rows) > 0 && shift < bits.Len(uint(a.M-1)); shift += 8 {
		var start [256]int
		for _, r := range rows {
			start[r>>shift&0xff]++
		}
		if start[rows[0]>>shift&0xff] == len(rows) {
			continue
		}
		sum := 0
		for b, c := range start {
			start[b], sum = sum, sum+c
		}
		for _, q := range src {
			b := rows[q] >> shift & 0xff
			dst[start[b]] = q
			start[b]++
		}
		src, dst = dst, src
	}
	sorted := s.tmp[:hi-lo]
	copy(ord, src)
	for i, q := range ord[:hi-lo] {
		sorted[i] = rows[q]
	}
	return sorted
}

// slab converts the column slab A[:, j0:j1] into a Slab: rows ascending,
// and the columns within each row ascending.
func (s *rowSorter) slab(a *CSC, j0, j1 int) *Slab {
	lo, n := a.ColPtr[j0], a.SlabNNZ(j0, j1)
	colIdx := make([]int, n) // the sorted entry positions until the gather
	sorted := s.sortRows(a, j0, j1, colIdx)
	for j := j0; j < j1; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			s.col[p-lo] = j - j0
		}
	}
	val := make([]float64, n)
	for i, q := range colIdx {
		val[i], colIdx[i] = a.Val[lo+q], s.col[q]
	}
	nr := runs(sorted)
	out := &Slab{M: a.M, N: j1 - j0, Rows: make([]int, nr), Off: make([]int, nr+1), ColIdx: colIdx, Val: val}
	k, prev := -1, -1
	for i, r := range sorted {
		if r != prev {
			k++
			out.Rows[k], out.Off[k] = r, i
		}
		prev = r
	}
	out.Off[nr] = n
	return out
}

// ToCSC reassembles the blocked structure into one CSC matrix (tests).
func (b *BlockedCSR) ToCSC() *CSC {
	coo := NewCOO(b.M, b.N, b.NNZ())
	for k, blk := range b.Blocks {
		base := b.ColStart[k]
		for r, i := range blk.Rows {
			for e := blk.Off[r]; e < blk.Off[r+1]; e++ {
				coo.Append(i, base+blk.ColIdx[e], blk.Val[e])
			}
		}
	}
	return coo.ToCSC()
}
