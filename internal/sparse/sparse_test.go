package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
		b := NewBlockedCSRPartition(a, UniformColSplit(n, bn), 1)
		return b.NNZ() == a.NNZ() && sameCSC(b.ToCSC(), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	for name, a := range tallTestMatrices() {
		for _, bn := range []int{1, 2, a.N} {
			if b := NewBlockedCSRPartition(a, UniformColSplit(a.N, bn), 1); !sameCSC(b.ToCSC(), a) {
				t.Fatalf("%s b_n=%d: ToCSC round trip differs", name, bn)
			}
		}
	}
}

// sameCSC reports whether two canonical CSC matrices (rows sorted within
// each column, no duplicates) are equal.
func sameCSC(a, b *CSC) bool {
	return a.M == b.M && a.N == b.N && slices.Equal(a.ColPtr, b.ColPtr) &&
		slices.Equal(a.RowIdx, b.RowIdx) && slices.Equal(a.Val, b.Val)
}

// tallTestMatrices are tall shapes, m ≫ nnz: a few entries over 2^40 rows
// whose row indices differ in every byte the conversion sorts on, with
// empty columns, and a single non-empty row of a 2^24-row matrix.
func tallTestMatrices() map[string]*CSC {
	scattered := NewCOO(1<<40, 9, 8)
	for k, e := range [][2]int{{0, 0}, {1<<32 + 5, 0}, {1 << 39, 0}, {1<<40 - 1, 2}, {5, 7}, {255, 8}, {256, 8}, {5, 8}} {
		scattered.Append(e[0], e[1], float64(k+1))
	}
	row := NewCOO(1<<24, 5, 3)
	for j := 0; j < 5; j += 2 {
		row.Append(1<<24-2, j, float64(j)-1.5)
	}
	return map[string]*CSC{"scattered": scattered.ToCSC(), "single row": row.ToCSC()}
}

// TestBlockedCSRNonEmptyRows checks the slab invariants Algorithm 4 relies
// on: each slab lists exactly the rows of its column range that hold an
// entry, ascending, with offsets that start at 0, rise with every row and
// end at the slab's nnz, and columns ascending within each row. It covers
// empty slabs, full slabs, single-row slabs, tall slabs and a random mix,
// each time with MemoryBytes counting exactly the four arrays and the
// ToCSC round trip exact.
func TestBlockedCSRNonEmptyRows(t *testing.T) {
	full := NewCOO(6, 4, 24)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			full.Append(i, j, float64(1+i*4+j))
		}
	}
	single := NewCOO(9, 5, 3)
	single.Append(4, 0, 1)
	single.Append(4, 2, -2)
	single.Append(4, 4, 3)
	mats := map[string]*CSC{
		"empty":  NewCOO(7, 5, 0).ToCSC(),
		"full":   full.ToCSC(),
		"single": single.ToCSC(),
		"random": RandomUniform(60, 23, 0.04, 29),
	}
	for name, a := range tallTestMatrices() {
		mats[name] = a
	}
	for name, a := range mats {
		for _, bn := range []int{1, 2, a.N} {
			b := NewBlockedCSRPartition(a, UniformColSplit(a.N, bn), 1)
			var arrays int64
			for k, blk := range b.Blocks {
				checkSlab(t, fmt.Sprintf("%s b_n=%d slab %d", name, bn, k), a, b.ColStart[k], b.ColStart[k+1], blk)
				arrays += int64(len(blk.Rows)+len(blk.Off)+len(blk.ColIdx)+len(blk.Val)) * 8
			}
			if got, want := b.MemoryBytes(), arrays+int64(len(b.ColStart))*8; got != want {
				t.Fatalf("%s b_n=%d: MemoryBytes %d, want %d", name, bn, got, want)
			}
			if !sameCSC(b.ToCSC(), a) {
				t.Fatalf("%s b_n=%d: ToCSC round trip differs", name, bn)
			}
		}
	}
}

// checkSlab checks s, the slab of a's columns [j0, j1), against a scan of
// those columns.
func checkSlab(t *testing.T, name string, a *CSC, j0, j1 int, s *Slab) {
	t.Helper()
	want := map[int]bool{}
	for p := a.ColPtr[j0]; p < a.ColPtr[j1]; p++ {
		want[a.RowIdx[p]] = true
	}
	nnz := a.SlabNNZ(j0, j1)
	if s.M != a.M || s.N != j1-j0 || len(s.Rows) != len(want) || len(s.Off) != len(s.Rows)+1 ||
		s.Off[0] != 0 || s.Off[len(s.Rows)] != nnz || len(s.ColIdx) != nnz || len(s.Val) != nnz {
		t.Fatalf("%s: %dx%d slab with %d rows, %d offsets %v and %d/%d entries; want %dx%d with %d rows and %d entries",
			name, s.M, s.N, len(s.Rows), len(s.Off), s.Off, len(s.ColIdx), len(s.Val), a.M, j1-j0, len(want), nnz)
	}
	for r, i := range s.Rows {
		if !want[i] || (r > 0 && i <= s.Rows[r-1]) || s.Off[r+1] <= s.Off[r] {
			t.Fatalf("%s: row %d (the %dth, entries [%d, %d)) is not a new non-empty row in ascending order", name, i, r, s.Off[r], s.Off[r+1])
		}
		for e := s.Off[r]; e < s.Off[r+1]; e++ {
			if c := s.ColIdx[e]; c < 0 || c >= s.N || (e > s.Off[r] && c <= s.ColIdx[e-1]) {
				t.Fatalf("%s: row %d column %d out of range or order", name, i, c)
			}
		}
	}
}

func TestBlockedCSRParallelMatchesSequential(t *testing.T) {
	a := RandomUniform(200, 90, 0.05, 11)
	seq := NewBlockedCSRPartition(a, UniformColSplit(a.N, 17), 1)
	par := NewBlockedCSRPartition(a, UniformColSplit(a.N, 17), 4)
	if len(seq.Blocks) != len(par.Blocks) {
		t.Fatalf("block count %d != %d", len(seq.Blocks), len(par.Blocks))
	}
	for k := range seq.Blocks {
		s, p := seq.Blocks[k], par.Blocks[k]
		if !slices.Equal(s.Rows, p.Rows) || !slices.Equal(s.Off, p.Off) ||
			!slices.Equal(s.ColIdx, p.ColIdx) || !slices.Equal(s.Val, p.Val) {
			t.Fatalf("block %d differs", k)
		}
	}
}

func TestBlockedCSRBlockInvariants(t *testing.T) {
	a := RandomUniform(50, 33, 0.1, 13)
	b := NewBlockedCSRPartition(a, UniformColSplit(a.N, 10), 1)
	if b.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", b.NumBlocks())
	}
	widthSum := 0
	for k, blk := range b.Blocks {
		checkSlab(t, fmt.Sprintf("block %d", k), a, b.ColStart[k], b.ColStart[k+1], blk)
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
	b := NewBlockedCSRPartition(a, UniformColSplit(a.N, 7), 1)
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
// correct across the uneven slab boundaries, also on tall matrices whose
// partitions leave slabs empty.
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
		for j := 0; j < a.N; j++ {
			for i := 0; i < a.M; i++ {
				if a.At(i, j) != b.At(i, j) {
					t.Fatalf("workers=%d: At(%d,%d) mismatch", workers, i, j)
				}
			}
		}
	}
	tall := tallTestMatrices()
	for name, colStart := range map[string][]int{"scattered": {0, 1, 4, 5, 9}, "single row": {0, 2, 3, 5}} {
		a := tall[name]
		for _, workers := range []int{1, 4} {
			b := NewBlockedCSRPartition(a, colStart, workers)
			for k, blk := range b.Blocks {
				checkSlab(t, fmt.Sprintf("%s workers=%d slab %d", name, workers, k), a, colStart[k], colStart[k+1], blk)
			}
			if !sameCSC(b.ToCSC(), a) {
				t.Fatalf("%s workers=%d: ToCSC round trip differs", name, workers)
			}
			for p, i := range a.RowIdx {
				j := sort.SearchInts(a.ColPtr, p+1) - 1
				if got := b.At(i, j); got != a.Val[p] {
					t.Fatalf("%s workers=%d: At(%d,%d) = %v, want %v", name, workers, i, j, got, a.Val[p])
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
