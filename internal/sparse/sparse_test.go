package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// randomCOO builds a random m×n COO with roughly nnz entries (duplicates
// possible, which exercises the dedup path).
func randomCOO(r *rand.Rand, m, n, nnz int) *COO {
	c := NewCOO(m, n, nnz)
	for k := 0; k < nnz; k++ {
		c.Append(r.Intn(m), r.Intn(n), r.NormFloat64())
	}
	return c
}

func TestCOOToCSCRoundTrip(t *testing.T) {
	c := NewCOO(3, 3, 4)
	c.Append(0, 0, 1)
	c.Append(2, 1, 2)
	c.Append(1, 2, 3)
	c.Append(2, 2, 4)
	a := c.ToCSC()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(2, 1) != 2 || a.At(1, 2) != 3 || a.At(2, 2) != 4 {
		t.Fatal("CSC values wrong")
	}
	if a.At(1, 1) != 0 {
		t.Fatal("zero entry nonzero")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	c := NewCOO(2, 2, 3)
	c.Append(1, 1, 2)
	c.Append(1, 1, 3)
	c.Append(0, 0, 1)
	a := c.ToCSC()
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 after dedup", a.NNZ())
	}
	if a.At(1, 1) != 5 {
		t.Fatalf("duplicate sum = %g, want 5", a.At(1, 1))
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	c := NewCOO(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Append(2, 0, 1)
}

func TestCSCValidateCatchesCorruption(t *testing.T) {
	a := RandomUniform(20, 10, 0.3, 1)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	bad.RowIdx[0] = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range row index")
	}
	bad2 := a.Clone()
	bad2.ColPtr[1] = bad2.ColPtr[0] - 1
	if err := bad2.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone ColPtr")
	}
}

func TestCSCCSRRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(20), 1+r.Intn(20)
		a := randomCOO(r, m, n, r.Intn(60)).ToCSC()
		back := a.ToCSR().ToCSC()
		if back.M != a.M || back.N != a.N || back.NNZ() != a.NNZ() {
			return false
		}
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if a.At(i, j) != back.At(i, j) {
					return false
				}
			}
		}
		return back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(15), 1+r.Intn(15)
		a := randomCOO(r, m, n, r.Intn(50)).ToCSC()
		at := a.Transpose()
		if at.M != n || at.N != m {
			return false
		}
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if a.At(i, j) != at.At(j, i) {
					return false
				}
			}
		}
		return at.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestColSlice(t *testing.T) {
	a := RandomUniform(30, 12, 0.3, 2)
	s := a.ColSlice(3, 8)
	if s.M != 30 || s.N != 5 {
		t.Fatalf("slice dims %dx%d", s.M, s.N)
	}
	for j := 0; j < 5; j++ {
		for i := 0; i < 30; i++ {
			if s.At(i, j) != a.At(i, j+3) {
				t.Fatalf("slice (%d,%d) mismatch", i, j)
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := RandomUniform(25, 10, 0.25, 3)
	x := make([]float64, 10)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y := make([]float64, 25)
	a.MulVec(x, y)
	ad := a.ToDense()
	for i := 0; i < 25; i++ {
		var want float64
		for j := 0; j < 10; j++ {
			want += ad.At(i, j) * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestMulVecTAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := RandomUniform(25, 10, 0.25, 5)
	x := make([]float64, 25)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y := make([]float64, 10)
	a.MulVecT(x, y)
	ad := a.ToDense()
	for j := 0; j < 10; j++ {
		var want float64
		for i := 0; i < 25; i++ {
			want += ad.At(i, j) * x[i]
		}
		if math.Abs(y[j]-want) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %g, want %g", j, y[j], want)
		}
	}
}

func TestCSRMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := RandomUniform(20, 15, 0.2, 7)
	csr := a.ToCSR()
	x := make([]float64, 15)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y1 := make([]float64, 20)
	y2 := make([]float64, 20)
	a.MulVec(x, y1)
	csr.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("CSR/CSC MulVec disagree at %d", i)
		}
	}
}

func TestColNorms(t *testing.T) {
	c := NewCOO(3, 2, 3)
	c.Append(0, 0, 3)
	c.Append(1, 0, 4)
	c.Append(2, 1, 7)
	a := c.ToCSC()
	norms := a.ColNorms()
	if math.Abs(norms[0]-5) > 1e-14 || math.Abs(norms[1]-7) > 1e-14 {
		t.Fatalf("ColNorms = %v", norms)
	}
}

func TestBlockedCSRMatchesCSC(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(30), 1+r.Intn(20)
		bn := 1 + r.Intn(n)
		a := randomCOO(r, m, n, r.Intn(80)).ToCSC()
		b := NewBlockedCSR(a, bn)
		if b.NNZ() != a.NNZ() {
			return false
		}
		back := b.ToCSC()
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if a.At(i, j) != back.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBlockedCSRNonEmptyRows checks each slab's recorded non-empty rows
// and entry offsets, which Algorithm 4 walks instead of all m rows, against
// a scan of RowPtr: for empty slabs, full slabs, single-row slabs and a
// random mix, each time with MemoryBytes counting the index and the ToCSC
// round trip still exact.
func TestBlockedCSRNonEmptyRows(t *testing.T) {
	full := NewCOO(6, 4, 24)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			full.Append(i, j, float64(1+i*4+j))
		}
	}
	for name, a := range indexTestMatrices(full) {
		for _, bn := range []int{1, 2, a.N} {
			b := NewBlockedCSR(a, bn)
			var indexBytes int64
			for k, blk := range b.Blocks {
				checkRowIndex(t, fmt.Sprintf("%s b_n=%d slab %d", name, bn, k), blk)
				rows, off := blk.NonEmptyRows()
				indexBytes += int64(len(rows)+len(off)) * 8
			}
			var arrays int64
			for _, blk := range b.Blocks {
				arrays += int64(len(blk.Val)+len(blk.ColIdx)+len(blk.RowPtr)) * 8
			}
			if got, want := b.MemoryBytes(), arrays+indexBytes+int64(len(b.ColStart))*8; got != want {
				t.Fatalf("%s b_n=%d: MemoryBytes %d, want %d with the non-empty-row indexes", name, bn, got, want)
			}
			back := b.ToCSC()
			for j := 0; j < a.N; j++ {
				for i := 0; i < a.M; i++ {
					if a.At(i, j) != back.At(i, j) {
						t.Fatalf("%s b_n=%d: ToCSC round trip differs at (%d, %d)", name, bn, i, j)
					}
				}
			}
		}
	}
	if got, _ := full.ToCSR().NonEmptyRows(); len(got) != 6 {
		t.Fatalf("ToCSR records %d non-empty rows of 6", len(got))
	}
}

// indexTestMatrices are the shapes the non-empty-row tests cover: no
// entry, every entry, one non-empty row, and a random mix.
func indexTestMatrices(full *COO) map[string]*CSC {
	single := NewCOO(9, 5, 3)
	single.Append(4, 0, 1)
	single.Append(4, 2, -2)
	single.Append(4, 4, 3)
	return map[string]*CSC{
		"empty":  NewCOO(7, 5, 0).ToCSC(),
		"full":   full.ToCSC(),
		"single": single.ToCSC(),
		"random": RandomUniform(60, 23, 0.04, 29),
	}
}

// checkRowIndex checks a's NonEmptyRows against a scan of RowPtr: the
// rows that hold an entry, ascending, each with its RowPtr offset, and one
// final offset at nnz.
func checkRowIndex(t *testing.T, name string, a *CSR) {
	t.Helper()
	rows, off := a.NonEmptyRows()
	if len(off) != len(rows)+1 || off[len(rows)] != a.NNZ() {
		t.Fatalf("%s: %d rows with offsets %v, want %d offsets ending at nnz %d", name, len(rows), off, len(rows)+1, a.NNZ())
	}
	k := 0
	for i := 0; i < a.M; i++ {
		if a.RowPtr[i+1] == a.RowPtr[i] {
			continue
		}
		if k == len(rows) || rows[k] != i || off[k] != a.RowPtr[i] {
			t.Fatalf("%s: non-empty row %d (entries from %d) missing from rows %v offsets %v", name, i, a.RowPtr[i], rows, off)
		}
		k++
	}
	if k != len(rows) {
		t.Fatalf("%s: %d non-empty rows recorded, %d in RowPtr", name, len(rows), k)
	}
}

// TestCSRNonEmptyRows checks the index every CSR constructor records —
// NewCSR, CSC.ToCSR and the blocked slabs — on random, empty and
// single-row matrices, that Validate rejects an index that disagrees with
// RowPtr, and that a CSR assembled by hand computes its index once: later
// calls, as every Kernel4 call makes, allocate nothing.
func TestCSRNonEmptyRows(t *testing.T) {
	full := NewCOO(3, 3, 9)
	for i := 0; i < 9; i++ {
		full.Append(i/3, i%3, float64(i+1))
	}
	for name, a := range indexTestMatrices(full) {
		c := a.ToCSR()
		checkRowIndex(t, name+" ToCSR", c)
		n, err := NewCSR(c.M, c.N, c.RowPtr, c.ColIdx, c.Val)
		if err != nil {
			t.Fatal(err)
		}
		checkRowIndex(t, name+" NewCSR", n)
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: Validate rejects the recorded index: %v", name, err)
		}
		if rows, _ := n.NonEmptyRows(); len(rows) > 0 {
			bad := &rowIndex{rows: rows[1:], off: n.rows.Load().off[1:]}
			n.rows.Store(bad)
			if n.Validate() == nil {
				t.Fatalf("%s: Validate accepts an index missing row %d", name, rows[0])
			}
		}
	}
	// Workers may reach a hand-assembled CSR at once: the first calls race
	// to record the index, and every one must see a complete index.
	concurrent := &CSR{M: 3, N: 2, RowPtr: []int{0, 1, 1, 2}, ColIdx: []int{0, 1}, Val: []float64{1, 2}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rows, off := concurrent.NonEmptyRows(); len(rows) != 2 || len(off) != 3 || off[2] != 2 {
				t.Errorf("concurrent first calls: rows %v offsets %v, want [0 2] [0 1 2]", rows, off)
			}
		}()
	}
	wg.Wait()
	byHand := &CSR{M: 3, N: 2, RowPtr: []int{0, 0, 1, 1}, ColIdx: []int{1}, Val: []float64{2}}
	checkRowIndex(t, "hand-assembled", byHand)
	if rows, off := byHand.NonEmptyRows(); len(rows) != 1 || rows[0] != 1 || off[0] != 0 || off[1] != 1 {
		t.Fatalf("hand-assembled CSR: rows %v offsets %v, want [1] [0 1]", rows, off)
	}
	if allocs := testing.AllocsPerRun(10, func() { byHand.NonEmptyRows() }); allocs != 0 {
		t.Fatalf("hand-assembled CSR: NonEmptyRows allocates %.0f objects per call after the first", allocs)
	}
}

func TestBlockedCSRParallelMatchesSequential(t *testing.T) {
	a := RandomUniform(200, 90, 0.05, 11)
	seq := NewBlockedCSR(a, 17)
	par := NewBlockedCSRParallel(a, 17, 4)
	if len(seq.Blocks) != len(par.Blocks) {
		t.Fatalf("block count %d != %d", len(seq.Blocks), len(par.Blocks))
	}
	for k := range seq.Blocks {
		s, p := seq.Blocks[k], par.Blocks[k]
		if s.NNZ() != p.NNZ() {
			t.Fatalf("block %d nnz %d != %d", k, s.NNZ(), p.NNZ())
		}
		for i := range s.Val {
			if s.Val[i] != p.Val[i] || s.ColIdx[i] != p.ColIdx[i] {
				t.Fatalf("block %d entry %d differs", k, i)
			}
		}
	}
}

func TestBlockedCSRBlockInvariants(t *testing.T) {
	a := RandomUniform(50, 33, 0.1, 13)
	b := NewBlockedCSR(a, 10)
	if b.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", b.NumBlocks())
	}
	widthSum := 0
	for k, blk := range b.Blocks {
		if err := blk.Validate(); err != nil {
			t.Fatalf("block %d invalid: %v", k, err)
		}
		if blk.M != 50 {
			t.Fatalf("block %d has %d rows", k, blk.M)
		}
		widthSum += blk.N
	}
	if widthSum != 33 {
		t.Fatalf("total width %d, want 33", widthSum)
	}
}

func TestBlockedCSRAt(t *testing.T) {
	a := RandomUniform(40, 25, 0.15, 17)
	b := NewBlockedCSR(a, 7)
	for j := 0; j < 25; j++ {
		for i := 0; i < 40; i++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("At(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestSlabNNZMatchesColPtr(t *testing.T) {
	a := RandomUniform(300, 80, 0.05, 19)
	for _, rng := range [][2]int{{0, 80}, {0, 0}, {80, 80}, {10, 10}, {7, 31}, {79, 80}} {
		j0, j1 := rng[0], rng[1]
		want := 0
		for j := j0; j < j1; j++ {
			want += a.ColPtr[j+1] - a.ColPtr[j]
		}
		if got := a.SlabNNZ(j0, j1); got != want {
			t.Fatalf("SlabNNZ(%d,%d) = %d, want %d", j0, j1, got, want)
		}
	}
	if a.SlabNNZ(0, a.N) != a.NNZ() {
		t.Fatal("full-slab SlabNNZ != NNZ")
	}
	for _, bad := range [][2]int{{-1, 5}, {5, 4}, {0, 81}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SlabNNZ(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			a.SlabNNZ(bad[0], bad[1])
		}()
	}
}

func TestUniformColSplit(t *testing.T) {
	cases := []struct {
		n, bn int
		want  []int
	}{
		{33, 10, []int{0, 10, 20, 30, 33}},
		{30, 10, []int{0, 10, 20, 30}},
		{5, 10, []int{0, 5}},
		{0, 10, []int{0}},
		{1, 1, []int{0, 1}},
	}
	for _, c := range cases {
		got := UniformColSplit(c.n, c.bn)
		if len(got) != len(c.want) {
			t.Fatalf("UniformColSplit(%d,%d) = %v, want %v", c.n, c.bn, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("UniformColSplit(%d,%d) = %v, want %v", c.n, c.bn, got, c.want)
			}
		}
	}
}

// A variable-width partition must reassemble to the same matrix and keep At
// correct across the uneven slab boundaries.
func TestBlockedCSRPartitionVariableWidths(t *testing.T) {
	a := RandomUniform(60, 40, 0.12, 23)
	colStart := []int{0, 1, 4, 5, 17, 30, 40} // deliberately ragged
	for _, workers := range []int{1, 4} {
		b := NewBlockedCSRPartition(a, colStart, workers)
		if b.NumBlocks() != len(colStart)-1 {
			t.Fatalf("workers=%d: %d blocks, want %d", workers, b.NumBlocks(), len(colStart)-1)
		}
		if b.NNZ() != a.NNZ() {
			t.Fatalf("workers=%d: nnz %d != %d", workers, b.NNZ(), a.NNZ())
		}
		if b.BlockCols != 13 {
			t.Fatalf("workers=%d: nominal width %d, want 13 (widest slab)", workers, b.BlockCols)
		}
		for j := 0; j < a.N; j++ {
			for i := 0; i < a.M; i++ {
				if a.At(i, j) != b.At(i, j) {
					t.Fatalf("workers=%d: At(%d,%d) mismatch", workers, i, j)
				}
			}
		}
	}
}

func TestBlockedCSRPartitionRejectsBadPartitions(t *testing.T) {
	a := RandomUniform(20, 10, 0.2, 29)
	for _, bad := range [][]int{
		{1, 10},       // does not start at 0
		{0, 5},        // does not end at n
		{0, 5, 5, 10}, // empty slab
		{0, 7, 3, 10}, // non-monotone
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("partition %v accepted", bad)
				}
			}()
			NewBlockedCSRPartition(a, bad, 1)
		}()
	}
}

func TestCSRMulVecTAgainstCSC(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	a := RandomUniform(40, 25, 0.15, 31)
	csr := a.ToCSR()
	x := make([]float64, 40)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y1 := make([]float64, 25)
	y2 := make([]float64, 25)
	a.MulVecT(x, y1)
	csr.MulVecT(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("CSR MulVecT disagrees at %d", i)
		}
	}
}

func TestDims(t *testing.T) {
	a := RandomUniform(7, 4, 0.5, 1)
	if m, n := a.Dims(); m != 7 || n != 4 {
		t.Fatalf("CSC Dims = (%d,%d)", m, n)
	}
	if m, n := a.ToCSR().Dims(); m != 7 || n != 4 {
		t.Fatalf("CSR Dims = (%d,%d)", m, n)
	}
}
