package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Whole-sketch golden digests. golden_test.go pins individual entries of a
// couple of sketches; these pins fold EVERY bit of Â into one splitmix64
// digest per configuration, across the (dist, source, shape, workers)
// grid, so a perturbation anywhere in the RNG stream, the checkpoint
// mixing, a distribution transform, a scheduler's task shapes, or a
// kernel's accumulation order flips at least one digest. The sketch is a
// documented deterministic function of (seed, d, BlockD, dist, source) —
// worker count and scheduler must NOT change the digest (pairs of configs
// below differ only in those and share the expected value on purpose).
//
// If a digest breaks and the change is INTENTIONAL (a new RNG version, a
// documented accumulation-order change), the failure output prints every
// new digest — copy them in and call the break out in the release notes.
// Configs that share a `want` must KEEP sharing it; a pair drifting apart
// means determinism across workers/schedulers broke, which is never ok.

// digestMatrix chains the dimensions and the raw float64 bit patterns of m
// through the same splitmix64/Mix13 mixer the matrix fingerprint uses (one
// multiply-shift round per word, full avalanche).
func digestMatrix(m *dense.Matrix) uint64 {
	h := mix13(uint64(m.Rows), uint64(m.Cols))
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for _, v := range col {
			h = mix13(h, math.Float64bits(v))
		}
	}
	return h
}

func mix13(h, x uint64) uint64 {
	z := h + x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestGoldenSketchDigests(t *testing.T) {
	type cfg struct {
		name    string
		dist    rng.Distribution
		source  rng.SourceKind
		seed    uint64
		m, n    int
		density float64
		matSeed int64
		d       int
		opts    Options
		want    uint64
	}
	cases := []cfg{
		{name: "uniform/seq", dist: rng.Uniform11, seed: 1, m: 80, n: 16, density: 0.15, matSeed: 11, d: 24,
			opts: Options{BlockD: 8, BlockN: 5, Workers: 1},
			want: 0x1e9f719c7b1e52f4},
		{name: "uniform/par8-weighted", dist: rng.Uniform11, seed: 1, m: 80, n: 16, density: 0.15, matSeed: 11, d: 24,
			opts: Options{BlockD: 8, BlockN: 5, Workers: 8},
			want: 0x1e9f719c7b1e52f4}, // workers must not change the sketch
		{name: "uniform/par8-uniform-sched", dist: rng.Uniform11, seed: 1, m: 80, n: 16, density: 0.15, matSeed: 11, d: 24,
			opts: Options{BlockD: 8, BlockN: 5, Workers: 8, Sched: SchedUniform},
			want: 0x1e9f719c7b1e52f4}, // nor may the scheduler
		{name: "rademacher/seq", dist: rng.Rademacher, seed: 2, m: 80, n: 16, density: 0.15, matSeed: 11, d: 24,
			opts: Options{BlockD: 8, BlockN: 5, Workers: 1},
			want: 0xee12929bd58bdbc8},
		{name: "rademacher/alg4", dist: rng.Rademacher, seed: 2, m: 80, n: 16, density: 0.15, matSeed: 11, d: 24,
			opts: Options{Algorithm: Alg4, BlockD: 8, BlockN: 5, Workers: 2},
			want: 0xee12929bd58bdbc8}, // Alg3 == Alg4 bit-identical
		{name: "gaussian/seq", dist: rng.Gaussian, seed: 3, m: 120, n: 20, density: 0.1, matSeed: 17, d: 33,
			opts: Options{BlockD: 11, BlockN: 7, Workers: 1},
			want: 0x8f323c7669fdaa59},
		{name: "gaussian/par2-nosteal", dist: rng.Gaussian, seed: 3, m: 120, n: 20, density: 0.1, matSeed: 17, d: 33,
			opts: Options{BlockD: 11, BlockN: 7, Workers: 2, Sched: SchedNoSteal},
			want: 0x8f323c7669fdaa59},
		{name: "scaledint/seq", dist: rng.ScaledInt, seed: 4, m: 100, n: 12, density: 0.2, matSeed: 23, d: 16,
			opts: Options{BlockD: 16, BlockN: 4, Workers: 1},
			want: 0xc8e4f08c6cb99638},
		{name: "scaledint/blockd-split", dist: rng.ScaledInt, seed: 4, m: 100, n: 12, density: 0.2, matSeed: 23, d: 16,
			opts: Options{BlockD: 5, BlockN: 4, Workers: 1},
			want: 0x7c7319a600e73392}, // xoshiro checkpoints ARE BlockD-dependent
		{name: "philox/seq", dist: rng.Uniform11, source: rng.SourcePhilox, seed: 5, m: 90, n: 14, density: 0.12, matSeed: 29, d: 20,
			opts: Options{BlockD: 7, BlockN: 6, Workers: 1},
			want: 0x9c6797cc6e339a8b},
		{name: "philox/blockd-split", dist: rng.Uniform11, source: rng.SourcePhilox, seed: 5, m: 90, n: 14, density: 0.12, matSeed: 29, d: 20,
			opts: Options{BlockD: 20, BlockN: 3, Workers: 4},
			want: 0x9c6797cc6e339a8b}, // counter-based: blocking-independent
		{name: "uniform/auto", dist: rng.Uniform11, seed: 6, m: 200, n: 25, density: 0.08, matSeed: 31, d: 40,
			opts: Options{Algorithm: AlgAuto, BlockD: 10, BlockN: 9, Workers: 2},
			want: 0x218b4a140ccfc1f6},
		{name: "sjlt/seq", dist: rng.SJLT, seed: 7, m: 120, n: 18, density: 0.12, matSeed: 37, d: 28,
			opts: Options{BlockD: 9, BlockN: 5, Workers: 1, Sparsity: 4},
			want: 0x40ba0f6404ecb1a6},
		{name: "sjlt/par8-weighted", dist: rng.SJLT, seed: 7, m: 120, n: 18, density: 0.12, matSeed: 37, d: 28,
			opts: Options{BlockD: 9, BlockN: 5, Workers: 8, Sparsity: 4},
			want: 0x40ba0f6404ecb1a6}, // workers must not change the sketch
		{name: "sjlt/blockd-split", dist: rng.SJLT, seed: 7, m: 120, n: 18, density: 0.12, matSeed: 37, d: 28,
			opts: Options{BlockD: 28, BlockN: 3, Workers: 4, Sched: SchedUniform, Sparsity: 4},
			want: 0x40ba0f6404ecb1a6}, // sparse columns are drawn at a reserved checkpoint: BlockD-independent even on xoshiro
		{name: "sjlt/alg4-default-s", dist: rng.SJLT, seed: 8, m: 120, n: 18, density: 0.12, matSeed: 37, d: 28,
			opts: Options{Algorithm: Alg4, BlockD: 9, BlockN: 5, Workers: 2},
			want: 0x09883cdf24458bd8}, // Sparsity 0 resolves to ⌈√28⌉ = 6
		{name: "sjlt/alg3-default-s", dist: rng.SJLT, seed: 8, m: 120, n: 18, density: 0.12, matSeed: 37, d: 28,
			opts: Options{Algorithm: Alg3, BlockD: 9, BlockN: 5, Workers: 1},
			want: 0x09883cdf24458bd8}, // Alg3 == Alg4 bit-identical for the scatter kernels too
		{name: "countsketch/seq", dist: rng.CountSketch, seed: 9, m: 100, n: 14, density: 0.15, matSeed: 41, d: 20,
			opts: Options{BlockD: 7, BlockN: 4, Workers: 1},
			want: 0xe664d298e2a806c8},
		{name: "countsketch/philox-par4", dist: rng.CountSketch, source: rng.SourcePhilox, seed: 10, m: 100, n: 14, density: 0.15, matSeed: 41, d: 20,
			opts: Options{BlockD: 7, BlockN: 4, Workers: 4},
			want: 0xa0d6982e447b78c1},
		// The shapes below pin the batched draws' edge cases: the SJLT
		// shape of the kernel benchmark (d=64, s=8: equal power-of-two
		// blocks), uniform block rows that are not a multiple of the four
		// lanes, and ±1 columns longer than one 64-bit sign word.
		{name: "sjlt/d64-s8-alg3", dist: rng.SJLT, seed: 11, m: 300, n: 24, density: 0.05, matSeed: 43, d: 64,
			opts: Options{Algorithm: Alg3, BlockD: 64, BlockN: 6, Workers: 2, Sparsity: 8},
			want: 0x15b20f6ccb3748dd},
		{name: "sjlt/d64-s8-alg4", dist: rng.SJLT, seed: 11, m: 300, n: 24, density: 0.05, matSeed: 43, d: 64,
			opts: Options{Algorithm: Alg4, BlockD: 64, BlockN: 6, Workers: 2, Sparsity: 8},
			want: 0x15b20f6ccb3748dd},
		{name: "sjlt/d64-s8-blockd-split", dist: rng.SJLT, seed: 11, m: 300, n: 24, density: 0.05, matSeed: 43, d: 64,
			opts: Options{Algorithm: Alg4, BlockD: 20, BlockN: 6, Workers: 1, Sparsity: 8},
			want: 0x15b20f6ccb3748dd},
		{name: "uniform/blockd10-alg3", dist: rng.Uniform11, seed: 12, m: 150, n: 20, density: 0.08, matSeed: 47, d: 27,
			opts: Options{Algorithm: Alg3, BlockD: 10, BlockN: 7, Workers: 2},
			want: 0x257a560716a05065},
		{name: "uniform/blockd10-alg4", dist: rng.Uniform11, seed: 12, m: 150, n: 20, density: 0.08, matSeed: 47, d: 27,
			opts: Options{Algorithm: Alg4, BlockD: 10, BlockN: 7, Workers: 1},
			want: 0x257a560716a05065},
		{name: "rademacher/blockd100-alg3", dist: rng.Rademacher, seed: 13, m: 150, n: 20, density: 0.08, matSeed: 53, d: 150,
			opts: Options{Algorithm: Alg3, BlockD: 100, BlockN: 7, Workers: 2},
			want: 0x4e20245e7754ea36},
		{name: "rademacher/blockd100-alg4", dist: rng.Rademacher, seed: 13, m: 150, n: 20, density: 0.08, matSeed: 53, d: 150,
			opts: Options{Algorithm: Alg4, BlockD: 100, BlockN: 7, Workers: 1},
			want: 0x4e20245e7754ea36},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := sparse.RandomUniform(c.m, c.n, c.density, c.matSeed)
			opts := c.opts
			opts.Dist = c.dist
			opts.Source = c.source
			opts.Seed = c.seed
			sk := mustSketcher(t, c.d, opts)
			ahat, _ := sk.Sketch(a)
			if got := digestMatrix(ahat); got != c.want {
				t.Errorf("digest %#x, want %#x (RNG stream or accumulation order changed?)", got, c.want)
			}
		})
	}
}

// TestGoldenMatrixMarketFixture pins the full path from bytes on disk to
// sketch bits: the checked-in .mtx fixture must parse to the exact CSC
// structure below and sketch to the exact digest, so a parser change (value
// parsing, duplicate handling, column ordering) is as loud as a kernel one.
func TestGoldenMatrixMarketFixture(t *testing.T) {
	a, err := sparse.ReadMatrixMarketFile("testdata/golden_8x5.mtx")
	if err != nil {
		t.Fatal(err)
	}
	if a.M != 8 || a.N != 5 || a.NNZ() != 13 {
		t.Fatalf("fixture parsed as %dx%d nnz=%d, want 8x5 nnz=13", a.M, a.N, a.NNZ())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("fixture CSC invalid: %v", err)
	}
	if got := a.ColPtr[4]; got != a.ColPtr[5]-3 {
		t.Fatalf("column 4 should hold the last 3 entries: ColPtr=%v", a.ColPtr)
	}
	// Column 3 (0-based) is empty by construction.
	if a.ColPtr[3] != a.ColPtr[4] {
		t.Fatalf("column 3 should be empty: ColPtr=%v", a.ColPtr)
	}
	sk := mustSketcher(t, 12, Options{Dist: rng.Rademacher, Seed: 77, BlockD: 5, BlockN: 2, Workers: 1})
	ahat, _ := sk.Sketch(a)
	if got, want := digestMatrix(ahat), uint64(0xf28e91a546d757a); got != want {
		t.Errorf("fixture sketch digest %#x, want %#x", got, want)
	}
}

// TestValidateColPtrBoundsRegression pins the PR-4 hardening of
// sparse.Validate: a ColPtr that is locally monotone at the front but
// indexes past the entry arrays before its decreasing step (here [0,5,2]
// with nnz=2) must be rejected by the per-column bounds check — the
// endpoint checks alone (ColPtr[0]==0, ColPtr[N]==nnz) pass it, and
// kernels iterating col 0 would read RowIdx[2:5] out of bounds.
func TestValidateColPtrBoundsRegression(t *testing.T) {
	a := &sparse.CSC{
		M: 4, N: 2,
		ColPtr: []int{0, 5, 2},
		RowIdx: []int{1, 3},
		Val:    []float64{1, 2},
	}
	err := a.Validate()
	if err == nil {
		t.Fatal("Validate accepted ColPtr [0,5,2] with nnz=2")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want the per-column bounds error, got: %v", err)
	}
	// The same structure must also be refused at plan construction, where
	// it would otherwise reach the kernels.
	if _, planErr := NewPlan(a, 8, Options{Workers: 1}); planErr == nil {
		t.Fatal("NewPlan accepted the out-of-bounds ColPtr")
	} else if !errors.Is(planErr, ErrInvalidMatrix) {
		t.Fatalf("NewPlan error %v, want ErrInvalidMatrix", planErr)
	}
}
