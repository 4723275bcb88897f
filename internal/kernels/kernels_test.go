package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

func randCSC(r *rand.Rand, m, n, nnz int) *sparse.CSC {
	coo := sparse.NewCOO(m, n, nnz)
	for k := 0; k < nnz; k++ {
		coo.Append(r.Intn(m), r.Intn(n), r.NormFloat64())
	}
	return coo.ToCSC()
}

// oneSlab is a as the single slab of Algorithm 4's blocked structure.
func oneSlab(a *sparse.CSC) *sparse.Slab {
	return sparse.NewBlockedCSRPartition(a, []int{0, a.N}, 1).Blocks[0]
}

func randDense(r *rand.Rand, rows, cols int) *dense.Matrix {
	m := dense.NewMatrix(rows, cols)
	for k := range m.Data {
		m.Data[k] = r.NormFloat64()
	}
	return m
}

// naiveMul is the oracle: G = L·R elementwise.
func naiveMul(l *dense.Matrix, rc *sparse.CSC) *dense.Matrix {
	g := dense.NewMatrix(l.Rows, rc.N)
	rd := rc.ToDense()
	dense.Gemm(1, l, rd, 0, g)
	return g
}

func TestAllLoopOrdersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		d1, m1, n1 := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		l := randDense(r, d1, m1)
		rc := randCSC(r, m1, n1, r.Intn(40))
		rr := rc.ToCSR()
		want := naiveMul(l, rc)
		for _, order := range AllLoopOrders() {
			g := dense.NewMatrix(d1, n1)
			MultiplyLoopOrder(order, l, rc, rr, g)
			if g.MaxAbsDiff(want) > 1e-10 {
				t.Fatalf("trial %d: order %v disagrees with oracle by %g",
					trial, order, g.MaxAbsDiff(want))
			}
		}
	}
}

func TestLoopOrderAccumulates(t *testing.T) {
	// MultiplyLoopOrder adds into G rather than overwriting.
	r := rand.New(rand.NewSource(2))
	l := randDense(r, 4, 5)
	rc := randCSC(r, 5, 3, 8)
	rr := rc.ToCSR()
	g := dense.NewMatrix(4, 3)
	g.Fill(1)
	MultiplyLoopOrder(OrderKJI, l, rc, rr, g)
	want := naiveMul(l, rc)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			if diff := g.At(i, j) - want.At(i, j) - 1; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("accumulation broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestLoopOrderStrings(t *testing.T) {
	names := map[LoopOrder]string{
		OrderIJK: "ijk", OrderIKJ: "ikj", OrderKIJ: "kij",
		OrderJIK: "jik", OrderJKI: "jki", OrderKJI: "kji",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// testSparsity is the requested s for sparse-family generators in these
// tests (clamped to [1, d] by rng.SJLTSparsity; CountSketch pins s = 1).
const testSparsity = 3

// genDists covers every generated kind of Gen: dense Fill, fused ±1 sign
// words, and the SJLT/CountSketch scatter.
var genDists = []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.SJLT, rng.CountSketch}

// newGen builds a generator over a fresh sampler of (src, dist).
func newGen(src rng.Source, dist rng.Distribution, d, bd int) *Gen {
	return NewGen(rng.NewSampler(src, dist), d, bd, testSparsity)
}

// perLoad is the sample count of loading one column: d1 entries for the dense
// kinds, s raw words for the sparse family.
func perLoad(dist rng.Distribution, d, d1 int) int64 {
	if rng.IsSparse(dist) {
		return int64(rng.SJLTSparsity(dist, testSparsity, d))
	}
	return int64(d1)
}

// materialize builds rows [i0, i0+d1) of columns 0..m-1 of the d-row S a
// generator of (src, dist) produces at block row i0, through the unfused
// sampler paths (Fill, FillSJLTColumn) — the oracle for the kernels.
func materialize(src rng.Source, dist rng.Distribution, d, i0, d1, m int) *dense.Matrix {
	s := rng.NewSampler(src, dist)
	out := dense.NewMatrix(d1, m)
	if rng.IsSparse(dist) {
		sp := rng.SJLTSparsity(dist, testSparsity, d)
		pos, val := make([]int, sp), make([]float64, sp)
		for j := 0; j < m; j++ {
			s.FillSJLTColumn(uint64(j), d, sp, rng.SJLTScale(sp), pos, val)
			for b, p := range pos {
				if p >= i0 && p < i0+d1 {
					out.Set(p-i0, j, val[b])
				}
			}
		}
		return out
	}
	for j := 0; j < m; j++ {
		s.SetState(uint64(i0), uint64(j))
		s.Fill(out.Col(j))
	}
	return out
}

func sameBits(x, y *dense.Matrix) bool {
	for k := range x.Data {
		if x.Data[k] != y.Data[k] {
			return false
		}
	}
	return true
}

func TestKernel3MatchesExplicitProduct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, dist := range genDists {
		for trial := 0; trial < 15; trial++ {
			d1, m, n1 := 1+r.Intn(20), 1+r.Intn(30), 1+r.Intn(10)
			i0, d := 100, 109+d1
			a := randCSC(r, m, n1, r.Intn(60))
			sm := materialize(rng.NewBatchXoshiro(7), dist, d, i0, d1, m)

			ahat := dense.NewMatrix(d1, n1)
			gen := Kernel3(ahat, a, newGen(rng.NewBatchXoshiro(7), dist, d, d1), uint64(i0), nil)
			if want := perLoad(dist, d, d1) * int64(a.NNZ()); gen != want {
				t.Fatalf("%v: Kernel3 generated %d samples, want per-load·nnz = %d", dist, gen, want)
			}
			want := naiveMul(sm, a)
			if ahat.MaxAbsDiff(want) > 1e-10 {
				t.Fatalf("%v trial %d: Kernel3 off by %g", dist, trial, ahat.MaxAbsDiff(want))
			}
		}
	}
}

func TestKernel4MatchesExplicitProduct(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, dist := range genDists {
		for trial := 0; trial < 15; trial++ {
			d1, m, n1 := 1+r.Intn(20), 1+r.Intn(30), 1+r.Intn(10)
			i0, d := 64, 70+d1
			a := randCSC(r, m, n1, r.Intn(60))
			sm := materialize(rng.NewBatchXoshiro(8), dist, d, i0, d1, m)

			ahat := dense.NewMatrix(d1, n1)
			gen := Kernel4(ahat, oneSlab(a), newGen(rng.NewBatchXoshiro(8), dist, d, d1), uint64(i0), nil)
			// One load per nonempty row.
			nonempty := 0
			rowPtr := a.ToCSR().RowPtr
			for i := 0; i < m; i++ {
				if rowPtr[i+1] > rowPtr[i] {
					nonempty++
				}
			}
			if want := perLoad(dist, d, d1) * int64(nonempty); gen != want {
				t.Fatalf("%v: Kernel4 generated %d, want %d", dist, gen, want)
			}
			want := naiveMul(sm, a)
			if ahat.MaxAbsDiff(want) > 1e-10 {
				t.Fatalf("%v trial %d: Kernel4 off by %g", dist, trial, ahat.MaxAbsDiff(want))
			}
		}
	}
}

// Algorithms 3 and 4 load the same columns of S and accumulate each output
// element in ascending sparse-row order, so they must produce
// bitwise-identical results for every generator kind — the invariant that
// lets users switch kernels freely.
func TestKernel3Kernel4BitwiseIdentical(t *testing.T) {
	t.Logf("AVX-512 backend: %v", rng.AVX512())
	for _, dist := range genDists {
		f := func(seed uint64, dims [3]uint8, nnzRaw uint16) bool {
			r := rand.New(rand.NewSource(int64(seed)))
			d1 := 1 + int(dims[0])%24
			m := 1 + int(dims[1])%40
			n1 := 1 + int(dims[2])%12
			d := 5 + d1 + int(dims[0])%7
			a := randCSC(r, m, n1, int(nnzRaw)%120)

			ah3 := dense.NewMatrix(d1, n1)
			Kernel3(ah3, a, newGen(rng.NewBatchXoshiro(seed), dist, d, d1), 5, nil)
			ah4 := dense.NewMatrix(d1, n1)
			Kernel4(ah4, oneSlab(a), newGen(rng.NewBatchXoshiro(seed), dist, d, d1), 5, nil)
			return sameBits(ah3, ah4)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%v: %v", dist, err)
		}
	}
}

func TestKernelsSkipEmptyRowsAndColumns(t *testing.T) {
	// Empty rows and columns: Kernel4 loads only rows 2 and 7, Kernel3
	// only the three stored entries.
	coo := sparse.NewCOO(10, 4, 3)
	coo.Append(2, 0, 1)
	coo.Append(2, 3, 2)
	coo.Append(7, 1, 3)
	a := coo.ToCSC()
	slab := oneSlab(a)
	d1 := 8
	for _, dist := range genDists {
		per := perLoad(dist, d1, d1)
		g := newGen(rng.NewBatchXoshiro(1), dist, d1, d1)
		if gen := Kernel4(dense.NewMatrix(d1, 4), slab, g, 0, nil); gen != 2*per {
			t.Fatalf("%v: Kernel4 generated %d, want %d (2 nonempty rows)", dist, gen, 2*per)
		}
		if gen := Kernel3(dense.NewMatrix(d1, 4), a, g, 0, nil); gen != 3*per {
			t.Fatalf("%v: Kernel3 generated %d, want %d (3 stored entries)", dist, gen, 3*per)
		}
	}
}

// A non-nil timer must be observationally invisible — same bits, same
// sample counts — for every generator kind, so the Table III/V breakdowns
// measure the kernel production runs.
func TestTimedKernelsMatchUntimed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// d1 = 67 straddles a 64-bit sign-word boundary in the fused ±1 path.
	d1, m, n1, i0 := 67, 25, 6, 9
	d := i0 + d1 + 11
	a := randCSC(r, m, n1, 50)
	slab := oneSlab(a)
	pre := materialize(rng.NewBatchXoshiro(11), rng.Uniform11, d, 0, d, m)

	kinds := map[string]func() *Gen{
		"pregen": func() *Gen { return NewPregenGen(pre) },
	}
	for _, dist := range []rng.Distribution{rng.Uniform11, rng.Gaussian, rng.ScaledInt, rng.Rademacher, rng.SJLT, rng.CountSketch} {
		dist := dist
		kinds[dist.String()] = func() *Gen { return newGen(rng.NewBatchXoshiro(11), dist, d, d1) }
	}
	run := func(timer *time.Duration, alg int, g *Gen) (*dense.Matrix, int64) {
		ahat := dense.NewMatrix(d1, n1)
		if alg == 3 {
			return ahat, Kernel3(ahat, a, g, uint64(i0), timer)
		}
		return ahat, Kernel4(ahat, slab, g, uint64(i0), timer)
	}
	for name, mk := range kinds {
		for _, alg := range []int{3, 4} {
			var dt time.Duration
			plain, genP := run(nil, alg, mk())
			timed, genT := run(&dt, alg, mk())
			if genP != genT {
				t.Fatalf("%s alg %d: timed generated %d samples, untimed %d", name, alg, genT, genP)
			}
			if !sameBits(plain, timed) {
				t.Fatalf("%s alg %d: the timer changed the bits", name, alg)
			}
		}
	}
}

func TestTimedKernelsReportSampleTime(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := randCSC(r, 200, 20, 800)
	d1 := 64
	for _, dist := range []rng.Distribution{rng.Uniform11, rng.SJLT} {
		var dt time.Duration
		Kernel3(dense.NewMatrix(d1, 20), a, newGen(rng.NewBatchXoshiro(12), dist, d1, d1), 0, &dt)
		if dt <= 0 {
			t.Fatalf("%v: timed Kernel3 reported zero sample time", dist)
		}
	}
}

// Reading S from memory through NewPregenGen must reproduce the
// regenerating kernels bit for bit, in both loop nests, and generate
// nothing. Rows of S outside the block row are noise the kernels must not
// touch.
func TestKernelPregenVariantsMatchRNGKernels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d1, m, n1, i0 := 10, 30, 8, 3
	d := i0 + d1 + 4
	a := randCSC(r, m, n1, 70)
	slab := oneSlab(a)
	for _, dist := range []rng.Distribution{rng.Uniform11, rng.SJLT} {
		sm := randDense(r, d, m+2)
		sm.View(i0, 0, d1, m).CopyFrom(materialize(rng.NewBatchXoshiro(13), dist, d, i0, d1, m))

		ahRNG := dense.NewMatrix(d1, n1)
		Kernel3(ahRNG, a, newGen(rng.NewBatchXoshiro(13), dist, d, d1), uint64(i0), nil)

		ah3 := dense.NewMatrix(d1, n1)
		if gen := Kernel3(ah3, a, NewPregenGen(sm), uint64(i0), nil); gen != 0 {
			t.Fatalf("%v: pre-generated Kernel3 reported %d samples", dist, gen)
		}
		if !sameBits(ah3, ahRNG) {
			t.Fatalf("%v: pre-generated Kernel3 != Kernel3 with same S", dist)
		}
		ah4 := dense.NewMatrix(d1, n1)
		if gen := Kernel4(ah4, slab, NewPregenGen(sm), uint64(i0), nil); gen != 0 {
			t.Fatalf("%v: pre-generated Kernel4 reported %d samples", dist, gen)
		}
		if !sameBits(ah4, ahRNG) {
			t.Fatalf("%v: pre-generated Kernel4 != Kernel3 with same S", dist)
		}
	}
}

func TestKernelDimensionPanics(t *testing.T) {
	a := randCSC(rand.New(rand.NewSource(8)), 5, 4, 6)
	g := newGen(rng.NewBatchXoshiro(1), rng.Uniform11, 10, 3)
	cases := []func(){
		// Âsub/slab column mismatch.
		func() { Kernel3(dense.NewMatrix(3, 9), a, g, 0, nil) },
		func() { Kernel4(dense.NewMatrix(3, 9), oneSlab(a), g, 0, nil) },
		// Block row taller than the generator's scratch.
		func() { Kernel3(dense.NewMatrix(4, 4), a, g, 0, nil) },
		func() { Kernel4(dense.NewMatrix(4, 4), oneSlab(a), g, 0, nil) },
		// Block row past the last row of S.
		func() { Kernel3(dense.NewMatrix(3, 4), a, g, 8, nil) },
		// Pre-generated S with too few rows for [i0, i0+d1).
		func() { Kernel3(dense.NewMatrix(3, 4), a, NewPregenGen(dense.NewMatrix(4, 5)), 2, nil) },
		func() { Kernel4(dense.NewMatrix(3, 4), oneSlab(a), NewPregenGen(dense.NewMatrix(4, 5)), 2, nil) },
		// Pre-generated S with fewer columns than the slab has rows.
		func() { Kernel3(dense.NewMatrix(3, 4), a, NewPregenGen(dense.NewMatrix(10, 4)), 0, nil) },
		func() { Kernel4(dense.NewMatrix(3, 4), oneSlab(a), NewPregenGen(dense.NewMatrix(10, 4)), 0, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
	// The boundary cases fit.
	Kernel3(dense.NewMatrix(3, 4), a, g, 7, nil)
	Kernel4(dense.NewMatrix(3, 4), oneSlab(a), NewPregenGen(dense.NewMatrix(5, 5)), 2, nil)
}

func TestAxpyTailLengths(t *testing.T) {
	for n := 0; n <= 9; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i + 1)
			y[i] = 1
		}
		axpy(2, x, y)
		for i := range y {
			if y[i] != 1+2*float64(i+1) {
				t.Fatalf("n=%d: y[%d] = %g", n, i, y[i])
			}
		}
	}
}

// The fused ±1 sign-bit path must agree bitwise with the unfused ±1
// vector semantics across odd block heights and word boundaries.
func TestFusedRademacherPaths(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, d1 := range []int{1, 3, 63, 64, 65, 100, 130} {
		a := randCSC(r, 40, 8, 60)
		d := 7 + d1
		sm := materialize(rng.NewBatchXoshiro(21), rng.Rademacher, d, 7, d1, 40)

		ah3 := dense.NewMatrix(d1, 8)
		Kernel3(ah3, a, newGen(rng.NewBatchXoshiro(21), rng.Rademacher, d, d1), 7, nil)
		want := naiveMul(sm, a)
		if ah3.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("d1=%d: fused Kernel3 ±1 off by %g", d1, ah3.MaxAbsDiff(want))
		}

		ah4 := dense.NewMatrix(d1, 8)
		Kernel4(ah4, oneSlab(a), newGen(rng.NewBatchXoshiro(21), rng.Rademacher, d, d1), 7, nil)
		if !sameBits(ah4, ah3) {
			t.Fatalf("d1=%d: fused Kernel4 ±1 differs from Kernel3", d1)
		}
	}
}

// The fused path must also match the generic fillRademacher consumed through
// a sampler with a source that lacks the fused interfaces (Philox).
func TestFusedRademacherMatchesGenericSource(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	a := randCSC(r, 30, 6, 40)
	d1 := 50
	sm := materialize(rng.NewPhilox4x32(5), rng.Rademacher, 3+d1, 3, d1, 30)
	ah := dense.NewMatrix(d1, 6)
	Kernel3(ah, a, newGen(rng.NewPhilox4x32(5), rng.Rademacher, 3+d1, d1), 3, nil)
	want := naiveMul(sm, a)
	if ah.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("philox ±1 kernel off by %g", ah.MaxAbsDiff(want))
	}
}
