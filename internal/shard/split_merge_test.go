package shard

import (
	"math"
	"strings"
	"testing"

	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
)

// TestSplitTiles checks the shards tile the columns exactly, carry the
// parent's rows untouched, and come out nnz-balanced.
func TestSplitTiles(t *testing.T) {
	for name, a := range map[string]*sparse.CSC{
		"uniform":  sparse.RandomUniform(200, 48, 0.1, 1),
		"powerlaw": sparse.PowerLaw(200, 48, 1000, 1.3, 2),
		"empty":    sparse.RandomUniform(50, 0, 0, 3),
	} {
		for _, k := range []int{1, 3, 4, 7} {
			shards := Split(a, k)
			next := 0
			nnz := 0
			for _, sh := range shards {
				if sh.J0 != next || sh.J1 < sh.J0 {
					t.Fatalf("%s k=%d: shard [%d:%d) does not continue tiling at %d", name, k, sh.J0, sh.J1, next)
				}
				if sh.A.M != a.M || sh.A.N != sh.J1-sh.J0 {
					t.Fatalf("%s k=%d: view is %dx%d for shard [%d:%d) of %dx%d", name, k, sh.A.M, sh.A.N, sh.J0, sh.J1, a.M, a.N)
				}
				if err := sh.A.Validate(); err != nil {
					t.Fatalf("%s k=%d: invalid shard view: %v", name, k, err)
				}
				next = sh.J1
				nnz += len(sh.A.Val)
			}
			if next != a.N {
				t.Fatalf("%s k=%d: shards end at %d, want %d", name, k, next, a.N)
			}
			if nnz != len(a.Val) {
				t.Fatalf("%s k=%d: shards carry %d nnz, matrix has %d", name, k, nnz, len(a.Val))
			}
		}
	}
}

// TestAccumulatorExact assembles out-of-order partials into a dirty
// destination and checks the result is the bit-exact source, including
// negative zeros.
func TestAccumulatorExact(t *testing.T) {
	const d, n = 3, 7
	src := dense.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		for i := 0; i < d; i++ {
			src.Set(i, j, float64(1+i+10*j))
		}
	}
	src.Set(1, 4, math.Copysign(0, -1)) // -0.0 must survive the merge
	cuts := []int{0, 2, 5, 7}
	got := dense.NewMatrix(d, n)
	got.Fill(math.NaN()) // a reused destination: its old values must not leak through
	acc := NewAccumulator(got)
	for _, idx := range []int{2, 0, 1} { // deliberately out of order
		j0, j1 := cuts[idx], cuts[idx+1]
		part := dense.NewMatrix(d, j1-j0)
		for j := j0; j < j1; j++ {
			copy(part.Col(j-j0), src.Col(j))
		}
		if err := acc.Add(j0, part); err != nil {
			t.Fatalf("add [%d:%d): %v", j0, j1, err)
		}
	}
	if err := acc.Complete(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < d; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(src.At(i, j)) {
				t.Fatalf("(%d,%d) = %x, want %x", i, j, math.Float64bits(got.At(i, j)), math.Float64bits(src.At(i, j)))
			}
		}
	}
}

// TestAccumulatorRejections covers the merge guard rails: double
// delivery, row mismatch, out-of-bounds placement, early Complete.
func TestAccumulatorRejections(t *testing.T) {
	acc := NewAccumulator(dense.NewMatrix(2, 5))
	if err := acc.Complete(); err == nil || !strings.Contains(err.Error(), "never delivered") {
		t.Fatalf("empty Complete: %v", err)
	}
	if err := acc.Add(0, dense.NewMatrix(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(1, dense.NewMatrix(2, 2)); err == nil {
		t.Fatal("overlapping add accepted")
	}
	if err := acc.Add(2, dense.NewMatrix(3, 2)); err == nil {
		t.Fatal("row-mismatched add accepted")
	}
	if err := acc.Add(4, dense.NewMatrix(2, 2)); err == nil {
		t.Fatal("overhanging add accepted")
	}
	if err := acc.Add(2, nil); err == nil {
		t.Fatal("nil partial accepted")
	}
	if err := acc.Add(2, dense.NewMatrix(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := acc.Complete(); err != nil {
		t.Fatal(err)
	}
}
