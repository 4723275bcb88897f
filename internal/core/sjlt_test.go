package core

import (
	"testing"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Sparse-sketch-family (SJLT/CountSketch) plan-level tests: the scatter
// kernels against an explicit S·A product, the degenerate shapes (s ≥ d,
// s = 1, empty columns, 0×n, m×0), and the zero-alloc steady state of the
// sparse execute path.

// explicitSketch computes S·A from a materialised S, accumulating each
// output column in ascending sparse-row order — the same order both scatter
// kernels use — so for exact-arithmetic distributions the comparison is
// bit-for-bit.
func explicitSketch(s *dense.Matrix, a *sparse.CSC) *dense.Matrix {
	out := dense.NewMatrix(s.Rows, a.N)
	for k := 0; k < a.N; k++ {
		rows, vals := a.ColView(k)
		col := out.Col(k)
		for t, j := range rows {
			sj := s.Col(j)
			v := vals[t]
			for i := range col {
				col[i] += sj[i] * v
			}
		}
	}
	return out
}

// TestSJLTMatchesMaterializedS cross-checks the scatter kernels against the
// explicit product with the materialised sparse S, bit-exactly, for both
// algorithms, both sources, explicit and default sparsity.
func TestSJLTMatchesMaterializedS(t *testing.T) {
	a := sparse.RandomUniform(150, 22, 0.1, 91)
	cases := []struct {
		name string
		d    int
		opts Options
	}{
		{"sjlt-s4-alg3", 26, Options{Algorithm: Alg3, Dist: rng.SJLT, Sparsity: 4, Seed: 5, BlockD: 9, BlockN: 6}},
		{"sjlt-s4-alg4", 26, Options{Algorithm: Alg4, Dist: rng.SJLT, Sparsity: 4, Seed: 5, BlockD: 9, BlockN: 6}},
		{"sjlt-default-s", 30, Options{Algorithm: Alg3, Dist: rng.SJLT, Seed: 6, BlockD: 8, BlockN: 5}},
		{"sjlt-philox", 26, Options{Algorithm: Alg4, Dist: rng.SJLT, Sparsity: 16, Source: rng.SourcePhilox, Seed: 7, BlockD: 26, BlockN: 4}},
		{"countsketch", 19, Options{Algorithm: Alg3, Dist: rng.CountSketch, Seed: 8, BlockD: 6, BlockN: 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sk := mustSketcher(t, c.d, c.opts)
			got, _ := sk.Sketch(a)
			want := explicitSketch(sk.MaterializeS(a.M), a)
			for k := 0; k < a.N; k++ {
				gc, wc := got.Col(k), want.Col(k)
				for i := range gc {
					if gc[i] != wc[i] {
						t.Fatalf("Â[%d,%d]=%g, explicit S·A gives %g", i, k, gc[i], wc[i])
					}
				}
			}
		})
	}
}

// TestSJLTMaterializedColumnStructure pins the construction: every
// materialised column has exactly s nonzeros valued ±1/√s, one per
// contiguous block, and s ≥ d clamps to a fully dense ±1/√d column set.
func TestSJLTMaterializedColumnStructure(t *testing.T) {
	const d, m = 24, 60
	for _, c := range []struct {
		name      string
		opts      Options
		wantS     int
		wantScale float64
	}{
		{"explicit-s6", Options{Dist: rng.SJLT, Sparsity: 6, Seed: 3}, 6, rng.SJLTScale(6)},
		{"default-ceil-sqrt", Options{Dist: rng.SJLT, Seed: 3}, 5, rng.SJLTScale(5)}, // ⌈√24⌉ = 5
		{"clamp-s-ge-d", Options{Dist: rng.SJLT, Sparsity: d + 10, Seed: 3}, d, rng.SJLTScale(d)},
		{"countsketch-s1", Options{Dist: rng.CountSketch, Sparsity: 7, Seed: 3}, 1, 1}, // Sparsity ignored
	} {
		t.Run(c.name, func(t *testing.T) {
			sk := mustSketcher(t, d, c.opts)
			s := sk.MaterializeS(m)
			for j := 0; j < m; j++ {
				nz := 0
				for _, v := range s.Col(j) {
					if v == 0 {
						continue
					}
					nz++
					if v != c.wantScale && v != -c.wantScale {
						t.Fatalf("col %d: entry %g, want ±%g", j, v, c.wantScale)
					}
				}
				if nz != c.wantS {
					t.Fatalf("col %d: %d nonzeros, want %d", j, nz, c.wantS)
				}
			}
		})
	}
}

// TestSJLTDegenerateMatrices pushes the sparse family through plans over
// 0×n, m×0, 0×0 and empty-column inputs: no panics, right shapes, zero
// sketches where the input is empty, and PlanStats surfacing the resolved
// sparsity.
func TestSJLTDegenerateMatrices(t *testing.T) {
	shapes := map[string]*sparse.CSC{
		"0xn": {M: 0, N: 9, ColPtr: make([]int, 10)},
		"mx0": {M: 40, N: 0, ColPtr: []int{0}},
		"0x0": {M: 0, N: 0, ColPtr: []int{0}},
	}
	for _, dist := range []rng.Distribution{rng.SJLT, rng.CountSketch} {
		for name, a := range shapes {
			for _, alg := range []Algorithm{Alg3, Alg4, AlgAuto} {
				p, err := NewPlan(a, 12, Options{Algorithm: alg, Dist: dist, Sparsity: 3, Seed: 1})
				if err != nil {
					t.Fatalf("%v/%s/%v: NewPlan: %v", dist, name, alg, err)
				}
				if want := rng.SJLTSparsity(dist, 3, 12); p.Stats().Sparsity != want {
					t.Errorf("%v/%s/%v: PlanStats.Sparsity=%d, want %d", dist, name, alg, p.Stats().Sparsity, want)
				}
				ahat := dense.NewMatrix(12, a.N)
				if _, err := p.Execute(ahat); err != nil {
					t.Fatalf("%v/%s/%v: Execute: %v", dist, name, alg, err)
				}
				for _, v := range ahat.Data {
					if v != 0 {
						t.Fatalf("%v/%s/%v: empty input sketched to nonzero %g", dist, name, alg, v)
					}
				}
				p.Close()
			}
		}
	}
	// Negative sparsity is rejected up front.
	if _, err := NewPlan(sparse.RandomUniform(10, 4, 0.5, 1), 8, Options{Dist: rng.SJLT, Sparsity: -1}); err == nil {
		t.Error("NewPlan accepted negative Sparsity")
	}
}

// TestSJLTFlopsAndWeights pins the nnz-aware accounting: a sparse-family
// plan charges 2·s·nnz flops (not 2·d·nnz) and weights tasks by nnz·s so
// the scheduler balances the real scatter cost.
func TestSJLTFlopsAndWeights(t *testing.T) {
	a := sparse.RandomUniform(300, 40, 0.1, 17)
	const d, s = 64, 4
	p, err := NewPlan(a, d, Options{Dist: rng.SJLT, Sparsity: s, Workers: 1, BlockD: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ahat := dense.NewMatrix(d, a.N)
	st, err := p.Execute(ahat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * int64(s) * int64(a.NNZ()); st.Flops != want {
		t.Errorf("Flops=%d, want 2·s·nnz=%d", st.Flops, want)
	}
	// Alg3 regenerates the s-word column once per stored entry per block
	// row: samples = blockRows·nnz·s.
	blockRows := int64((d + 15) / 16)
	if p.Stats().Algorithm == Alg3 {
		if want := blockRows * int64(a.NNZ()) * s; st.Samples != want {
			t.Errorf("Samples=%d, want blockRows·nnz·s=%d", st.Samples, want)
		}
	}
	// Task weights are nnz·s, so the per-slab weight sum is independent of
	// the number of block rows times d1 — total = blockRows·nnz·s.
	var sum int64
	for _, tk := range p.tasks {
		sum += tk.weight
	}
	if want := blockRows * int64(a.NNZ()) * s; sum != want {
		t.Errorf("total task weight %d, want %d", sum, want)
	}
}
