package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

func mustSketcher(t testing.TB, d int, opts Options) *Sketcher {
	t.Helper()
	sk, err := NewSketcher(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestNewSketcherValidation(t *testing.T) {
	if _, err := NewSketcher(0, Options{}); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewSketcher(-3, Options{}); err == nil {
		t.Error("d<0 accepted")
	}
	if _, err := NewSketcher(5, Options{BlockD: -1}); err == nil {
		t.Error("negative BlockD accepted")
	}
	if _, err := NewSketcher(5, Options{Workers: -2}); err == nil {
		t.Error("negative Workers accepted")
	}
}

// Sketch must equal the explicit product with the materialised S under the
// same blocking — exactly, since both accumulate contributions in ascending
// row order.
func TestSketchMatchesMaterializedProduct(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, alg := range []Algorithm{Alg3, Alg4} {
		for trial := 0; trial < 8; trial++ {
			m, n := 20+r.Intn(60), 5+r.Intn(25)
			d := 2*n + r.Intn(n)
			a := sparse.RandomUniform(m, n, 0.1, int64(trial))
			opts := Options{
				Algorithm: alg,
				Seed:      uint64(trial) + 7,
				BlockD:    1 + r.Intn(d),
				BlockN:    1 + r.Intn(n),
				Workers:   1,
			}
			sk := mustSketcher(t, d, opts)
			ahat, st := sk.Sketch(a)
			if st.Flops != 2*int64(d)*int64(a.NNZ()) {
				t.Fatalf("%v: flops=%d", alg, st.Flops)
			}
			s := sk.MaterializeS(m)
			want := dense.NewMatrix(d, n)
			dense.Gemm(1, s, a.ToDense(), 0, want)
			if diff := ahat.MaxAbsDiff(want); diff > 1e-10 {
				t.Fatalf("%v trial %d: sketch differs from S·A by %g", alg, trial, diff)
			}
		}
	}
}

// Every distribution's sketch must equal the explicit product with its
// materialised S — in particular the fused ±1 bit path must agree bitwise
// with what the unfused ±1 vector would produce.
func TestSketchAllDistributionsMatchMaterialized(t *testing.T) {
	a := sparse.RandomUniform(90, 25, 0.12, 9)
	d := 60
	for _, dist := range []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.Gaussian, rng.ScaledInt, rng.Junk} {
		for _, alg := range []Algorithm{Alg3, Alg4} {
			sk := mustSketcher(t, d, Options{
				Algorithm: alg, Dist: dist, Seed: 5, BlockD: 17, BlockN: 6, Workers: 1,
			})
			ahat, _ := sk.Sketch(a)
			s := sk.MaterializeS(a.M)
			want := dense.NewMatrix(d, a.N)
			aRef := a
			if dist == rng.ScaledInt {
				// MaterializeS folds the 2⁻³¹ scale into S, so the
				// reference product uses the unscaled A.
				aRef = a
			}
			dense.Gemm(1, s, aRef.ToDense(), 0, want)
			tol := 1e-10
			if dist == rng.ScaledInt {
				tol = 1e-6 * want.FrobeniusNorm()
			}
			if diff := ahat.MaxAbsDiff(want); diff > tol {
				t.Fatalf("%v/%v: sketch differs from S·A by %g", dist, alg, diff)
			}
		}
	}
}

// The paper's reproducibility contract: same seed and blocking → identical
// Â regardless of worker count or algorithm.
func TestSketchParallelBitwiseIdentical(t *testing.T) {
	a := sparse.RandomUniform(300, 80, 0.05, 3)
	d := 200
	for _, alg := range []Algorithm{Alg3, Alg4} {
		base := Options{Algorithm: alg, Seed: 42, BlockD: 64, BlockN: 17, Workers: 1}
		skSeq := mustSketcher(t, d, base)
		seq, _ := skSeq.Sketch(a)
		for _, workers := range []int{2, 4, 8} {
			opts := base
			opts.Workers = workers
			skPar := mustSketcher(t, d, opts)
			par, _ := skPar.Sketch(a)
			for k := range seq.Data {
				if seq.Data[k] != par.Data[k] {
					t.Fatalf("%v: %d workers changed the sketch", alg, workers)
				}
			}
		}
	}
}

func TestSketchAlg3EqualsAlg4(t *testing.T) {
	f := func(seed uint64, bnRaw, bdRaw uint8) bool {
		a := sparse.RandomUniform(120, 40, 0.07, int64(seed%1000))
		d := 90
		bn := 1 + int(bnRaw)%40
		bd := 1 + int(bdRaw)%90
		o3 := Options{Algorithm: Alg3, Seed: seed, BlockN: bn, BlockD: bd, Workers: 1}
		o4 := Options{Algorithm: Alg4, Seed: seed, BlockN: bn, BlockD: bd, Workers: 1}
		s3, err := NewSketcher(d, o3)
		if err != nil {
			return false
		}
		s4, err := NewSketcher(d, o4)
		if err != nil {
			return false
		}
		a3, _ := s3.Sketch(a)
		a4, _ := s4.Sketch(a)
		for k := range a3.Data {
			if a3.Data[k] != a4.Data[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The Philox counter-based source must make the sketch independent of b_d
// as well (the RandBLAS-style property §IV-C wants; xoshiro checkpoints
// only guarantee fixed-blocking reproducibility).
func TestPhiloxSketchBlockingIndependent(t *testing.T) {
	a := sparse.RandomUniform(150, 50, 0.08, 5)
	d := 120
	var ref *dense.Matrix
	for _, bd := range []int{120, 60, 37, 11} {
		sk := mustSketcher(t, d, Options{
			Algorithm: Alg3, Source: rng.SourcePhilox, Dist: rng.Uniform11,
			Seed: 9, BlockD: bd, BlockN: 13, Workers: 1,
		})
		got, _ := sk.Sketch(a)
		if ref == nil {
			ref = got
			continue
		}
		if diff := got.MaxAbsDiff(ref); diff != 0 {
			t.Fatalf("b_d=%d changed the Philox sketch by %g", bd, diff)
		}
	}
}

// Xoshiro sketches, by contrast, are only reproducible for a fixed blocking:
// changing b_d changes the checkpoints. Document that behaviour with a test.
func TestXoshiroSketchDependsOnBlockRows(t *testing.T) {
	a := sparse.RandomUniform(150, 50, 0.08, 5)
	d := 120
	s1 := mustSketcher(t, d, Options{Seed: 9, BlockD: 120, BlockN: 13, Workers: 1})
	s2 := mustSketcher(t, d, Options{Seed: 9, BlockD: 60, BlockN: 13, Workers: 1})
	a1, _ := s1.Sketch(a)
	a2, _ := s2.Sketch(a)
	if a1.MaxAbsDiff(a2) == 0 {
		t.Fatal("different b_d produced identical xoshiro sketches; checkpoints not anchored at block rows?")
	}
}

func TestSketchScaledIntEquivalence(t *testing.T) {
	// The scaling trick must produce exactly S_int·(A·2⁻³¹) =
	// (S_int·2⁻³¹)·A up to float rounding of the pre-scale.
	a := sparse.RandomUniform(80, 30, 0.1, 11)
	d := 64
	sk := mustSketcher(t, d, Options{Dist: rng.ScaledInt, Seed: 3, BlockD: 32, BlockN: 7, Workers: 1})
	ahat, _ := sk.Sketch(a)

	s := sk.MaterializeS(a.M) // carries the 2⁻³¹ scale per MaterializeS contract
	scaledA := a.Clone()
	scaledA.Scale(rng.Scale31)
	sInt := dense.NewMatrix(d, a.M)
	for j := 0; j < a.M; j++ {
		col := s.Col(j)
		dst := sInt.Col(j)
		for i := range col {
			dst[i] = col[i] / rng.Scale31
		}
	}
	want := dense.NewMatrix(d, a.N)
	dense.Gemm(1, sInt, scaledA.ToDense(), 0, want)
	if diff := ahat.MaxAbsDiff(want); diff > 1e-9 {
		t.Fatalf("scaling-trick sketch off by %g", diff)
	}
	// And the result magnitude matches a (-1,1)-scaled sketch: entries of
	// S_int·2⁻³¹ are in [-1, 1), so column norms should be comparable.
	skU := mustSketcher(t, d, Options{Dist: rng.Uniform11, Seed: 3, BlockD: 32, BlockN: 7, Workers: 1})
	au, _ := skU.Sketch(a)
	nScaled := ahat.FrobeniusNorm()
	nUniform := au.FrobeniusNorm()
	if nScaled/nUniform > 3 || nUniform/nScaled > 3 {
		t.Fatalf("scaled sketch norm %g vs uniform %g: scale factor not applied", nScaled, nUniform)
	}
}

func TestSketchSampleCounts(t *testing.T) {
	// Alg3 generates d·nnz samples; Alg4 generates at most
	// d·(nonempty rows per slab summed over slabs).
	a := sparse.RandomUniform(100, 60, 0.05, 13)
	d := 48
	sk3 := mustSketcher(t, d, Options{Algorithm: Alg3, BlockD: 16, BlockN: 20, Workers: 1})
	_, st3 := sk3.Sketch(a)
	if st3.Samples != int64(d)*int64(a.NNZ()) {
		t.Fatalf("Alg3 samples = %d, want %d", st3.Samples, int64(d)*int64(a.NNZ()))
	}
	sk4 := mustSketcher(t, d, Options{Algorithm: Alg4, BlockD: 16, BlockN: 20, Workers: 1})
	_, st4 := sk4.Sketch(a)
	if st4.Samples >= st3.Samples {
		t.Fatalf("Alg4 samples %d not fewer than Alg3 %d", st4.Samples, st3.Samples)
	}
	if st4.ConvertTime <= 0 {
		t.Fatal("Alg4 did not report conversion time")
	}
}

func TestSketchIntoReusesBuffer(t *testing.T) {
	a := sparse.RandomUniform(50, 20, 0.1, 17)
	d := 30
	sk := mustSketcher(t, d, Options{Seed: 1, Workers: 1})
	buf := dense.NewMatrix(d, 20)
	buf.Fill(99) // must be overwritten, not accumulated
	sk.SketchInto(buf, a)
	fresh, _ := sk.Sketch(a)
	if buf.MaxAbsDiff(fresh) != 0 {
		t.Fatal("SketchInto did not overwrite the buffer")
	}
}

func TestSketchTimedStats(t *testing.T) {
	a := sparse.RandomUniform(200, 50, 0.1, 19)
	d := 100
	sk := mustSketcher(t, d, Options{Timed: true, Workers: 1})
	ahat, st := sk.Sketch(a)
	if st.SampleTime <= 0 {
		t.Fatal("Timed run reported no sample time")
	}
	if st.Total < st.SampleTime {
		t.Fatal("total < sample time")
	}
	// Timed and untimed results identical.
	sk2 := mustSketcher(t, d, Options{Timed: false, Workers: 1})
	ahat2, _ := sk2.Sketch(a)
	if ahat.MaxAbsDiff(ahat2) != 0 {
		t.Fatal("Timed changed the sketch")
	}
}

func TestSketchEmptyColumnsAndRows(t *testing.T) {
	// A matrix with empty leading/trailing columns and many empty rows.
	coo := sparse.NewCOO(40, 10, 3)
	coo.Append(5, 3, 1.5)
	coo.Append(20, 3, -2)
	coo.Append(39, 7, 0.5)
	a := coo.ToCSC()
	d := 12
	for _, alg := range []Algorithm{Alg3, Alg4} {
		sk := mustSketcher(t, d, Options{Algorithm: alg, Seed: 2, BlockD: 5, BlockN: 3, Workers: 1})
		ahat, _ := sk.Sketch(a)
		s := sk.MaterializeS(40)
		want := dense.NewMatrix(d, 10)
		dense.Gemm(1, s, a.ToDense(), 0, want)
		if ahat.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("%v: sparse corner case wrong", alg)
		}
		// Columns without nonzeros must be exactly zero.
		for _, j := range []int{0, 1, 2, 9} {
			for i := 0; i < d; i++ {
				if ahat.At(i, j) != 0 {
					t.Fatalf("%v: empty input column %d produced nonzero", alg, j)
				}
			}
		}
	}
}

func TestSketchEmptyMatrix(t *testing.T) {
	a := sparse.NewCOO(10, 5, 0).ToCSC()
	sk := mustSketcher(t, 8, Options{Workers: 1})
	ahat, st := sk.Sketch(a)
	if st.Samples != 0 {
		t.Fatalf("empty matrix generated %d samples", st.Samples)
	}
	for _, v := range ahat.Data {
		if v != 0 {
			t.Fatal("empty matrix produced nonzero sketch")
		}
	}
}

func TestBlockSizeDefaults(t *testing.T) {
	sk3 := mustSketcher(t, 10000, Options{Algorithm: Alg3})
	bd, bn := sk3.blockSizes(100000)
	if bd != DefaultBlockD || bn != DefaultBlockNAlg3 {
		t.Fatalf("Alg3 defaults (%d,%d)", bd, bn)
	}
	sk4 := mustSketcher(t, 10000, Options{Algorithm: Alg4})
	_, bn4 := sk4.blockSizes(100000)
	if bn4 != DefaultBlockNAlg4 {
		t.Fatalf("Alg4 default bn %d", bn4)
	}
	// Clipping.
	skSmall := mustSketcher(t, 7, Options{BlockD: 100, BlockN: 100})
	bd, bn = skSmall.blockSizes(3)
	if bd != 7 || bn != 3 {
		t.Fatalf("clipping gave (%d,%d)", bd, bn)
	}
}

// Statistical sanity: a (±1/√d-scaled) sketch approximately preserves
// column norms (Johnson–Lindenstrauss flavour), which is why it works as a
// least-squares preconditioner.
func TestSketchPreservesGeometry(t *testing.T) {
	a := sparse.RandomUniform(400, 20, 0.2, 23)
	n := a.N
	d := 10 * n // generous for tight concentration
	sk := mustSketcher(t, d, Options{Dist: rng.Rademacher, Seed: 31, Workers: 1})
	ahat, _ := sk.Sketch(a)
	scale := 1 / math.Sqrt(float64(d))
	for j := 0; j < n; j++ {
		orig := dense.Nrm2(a.ToDense().Col(j))
		sk := dense.Nrm2(ahat.Col(j)) * scale
		if orig == 0 {
			continue
		}
		ratio := sk / orig
		if ratio < 0.7 || ratio > 1.3 {
			t.Fatalf("column %d norm ratio %g after sketching", j, ratio)
		}
	}
}

func TestGFlopsComputation(t *testing.T) {
	st := Stats{Flops: 2e9, Total: 1e9} // 2e9 flops in 1 second
	if g := st.GFlops(); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GFlops = %g, want 2", g)
	}
	if (Stats{}).GFlops() != 0 {
		t.Fatal("zero stats should give 0 GFlops")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if Alg3.String() == "" || Alg4.String() == "" || Algorithm(99).String() == "" {
		t.Fatal("empty algorithm name")
	}
}

func TestSketchVecMatchesMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m := 70
	v := make([]float64, m)
	for i := range v {
		if r.Float64() < 0.6 {
			v[i] = r.NormFloat64()
		}
	}
	for _, dist := range []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.ScaledInt, rng.SJLT, rng.CountSketch} {
		sk := mustSketcher(t, 50, Options{Dist: dist, Seed: 6, BlockD: 16, Workers: 1})
		got := sk.SketchVec(v)
		s := sk.MaterializeS(m)
		want := make([]float64, 50)
		dense.Gemv(1, s, v, 0, want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("%v: S·v[%d] = %g, want %g", dist, i, got[i], want[i])
			}
		}
	}
}

func TestSketchVecConsistentWithSketch(t *testing.T) {
	// Sketching a one-column matrix must equal sketching its column.
	a := sparse.RandomUniform(40, 1, 0.4, 43)
	v := make([]float64, 40)
	rows, vals := a.ColView(0)
	for k, r := range rows {
		v[r] = vals[k]
	}
	sk := mustSketcher(t, 24, Options{Seed: 9, BlockD: 7, Workers: 1})
	ahat, _ := sk.Sketch(a)
	sv := sk.SketchVec(v)
	for i := range sv {
		if sv[i] != ahat.At(i, 0) {
			t.Fatalf("SketchVec differs from one-column Sketch at %d", i)
		}
	}
}

func TestSketchVecEmptyAndZero(t *testing.T) {
	sk := mustSketcher(t, 10, Options{Workers: 1})
	if out := sk.SketchVec(nil); len(out) != 10 {
		t.Fatal("empty input should give zero d-vector")
	}
	out := sk.SketchVec(make([]float64, 25))
	for _, x := range out {
		if x != 0 {
			t.Fatal("zero vector sketched to nonzero")
		}
	}
}

func TestSketchVecInto(t *testing.T) {
	sk := mustSketcher(t, 8, Options{Workers: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad dst length")
		}
	}()
	sk.SketchVecInto(make([]float64, 3), make([]float64, 5))
}

func TestChooseAlgorithmDirectional(t *testing.T) {
	d := 600
	// Dense-row pattern: Algorithm 4's sample count collapses by ~n per
	// row; it must win even at pessimistic h.
	rowMat := sparse.AbnormalA(4000, 2000, 200, 1)
	if got := ChooseAlgorithm(rowMat, d, Options{}, 1, 32<<20); got != Alg4 {
		t.Fatalf("dense-row pattern chose %v", got)
	}
	// Free RNG and a cache too small for the Â block: the scatter
	// penalty dominates and Algorithm 3 must win.
	colMat := sparse.AbnormalC(4000, 2000, 100, 2)
	if got := ChooseAlgorithm(colMat, d, Options{}, 1e-9, 1<<12); got != Alg3 {
		t.Fatalf("column-dense pattern with free RNG chose %v", got)
	}
}

func TestAlgAutoSketchCorrect(t *testing.T) {
	a := sparse.AbnormalA(500, 200, 50, 3)
	d := 120
	auto := mustSketcher(t, d, Options{Algorithm: AlgAuto, Seed: 4, BlockD: 40, BlockN: 25, Workers: 1})
	got, _ := auto.Sketch(a)
	ref := mustSketcher(t, d, Options{Algorithm: Alg3, Seed: 4, BlockD: 40, BlockN: 25, Workers: 1})
	want, _ := ref.Sketch(a)
	// Whatever kernel Auto picked, the result is the same sketch.
	if got.MaxAbsDiff(want) != 0 {
		t.Fatal("AlgAuto produced a different sketch")
	}
}
