package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sketchsp/internal/rng"
)

// testMultipliers are the a of y += a·x the differential tests use: ±0,
// the smallest subnormal, ±1, and random magnitudes from 2⁻³⁰⁰ to 2³⁰⁰.
func testMultipliers(r *rand.Rand) []float64 {
	as := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, -1}
	for e := -300; e <= 300; e += 50 {
		as = append(as, math.Ldexp(1+r.Float64(), e), -math.Ldexp(1+r.Float64(), e))
	}
	return as
}

// testVector mixes normal and subnormal values of both signs.
func testVector(r *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		switch r.Intn(3) {
		case 0:
			y[i] = math.Float64frombits(r.Uint64() & (1<<52 - 1))
		case 1:
			y[i] = -math.Float64frombits(r.Uint64() & (1<<52 - 1))
		default:
			y[i] = r.NormFloat64() * math.Ldexp(1, r.Intn(40)-20)
		}
	}
	return y
}

func requireAVX512(t *testing.T) {
	t.Helper()
	if !useAVX512 {
		t.Skip("no AVX-512 backend to compare: the CPU lacks AVX512F+DQ+VL or the build uses the purego tag")
	}
}

func requireSameBits(t *testing.T, what string, n int, a float64, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d a=%g: [%d] = %x (%g), %x (%g) in the Go loop",
				what, n, a, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAVX512AxpyMatchesGo compares axpy on the assembly backend with the Go
// loop bit for bit, over every length up to 260 (every ZMM tail),
// multipliers across 600 binades and subnormal operands.
func TestAVX512AxpyMatchesGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(5))
	as := testMultipliers(r)
	for n := 0; n <= 260; n++ {
		for _, a := range as {
			x, y := testVector(r, n), testVector(r, n)
			got, want := append([]float64(nil), y...), append([]float64(nil), y...)
			axpy(a, x, got)
			axpyGo(a, x, want)
			requireSameBits(t, "axpy", n, a, got, want)
		}
	}
}

// TestAVX512AxpySignMatchesGo does the same for the opmask update of one
// ±1 column, with random sign words.
func TestAVX512AxpySignMatchesGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(6))
	as := testMultipliers(r)
	for n := 0; n <= 260; n++ {
		words := make([]uint64, (n+63)/64)
		for _, a := range as {
			for i := range words {
				words[i] = r.Uint64()
			}
			y := testVector(r, n)
			got, want := append([]float64(nil), y...), append([]float64(nil), y...)
			axpySignCols([]float64{a}, words, got)
			axpySignGo(a, words, want)
			requireSameBits(t, "axpySign", n, a, got, want)
		}
	}
}

// guard is the value past the end of y that the multi-column updates must
// leave alone: the masked last step of the assembly writes only len(y)
// elements.
const guard = 12345.678

// TestAxpyColsMatchPerColumn checks the one-pass update of 1 to 4 dense
// columns bit for bit against one axpyGo per column in order, over every
// length from 0 to 130 (ZMM tails, d1 not a multiple of 8), multipliers
// with ±0 and subnormals, and subnormal operands. On the AVX-512 backend
// it tests axpyColsAVX; under purego it tests the Go loops.
func TestAxpyColsMatchPerColumn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	as := testMultipliers(r)
	for cols := 1; cols <= rng.MaxColumns; cols++ {
		for n := 0; n <= 130; n++ {
			for trial := 0; trial < 3; trial++ {
				a := make([]float64, cols)
				for c := range a {
					a[c] = as[r.Intn(len(as))]
				}
				x, y := testVector(r, cols*n), testVector(r, n)
				got := append(append([]float64(nil), y...), guard)
				want := append([]float64(nil), y...)
				axpyCols(a, x, got[:n])
				for c := range a {
					axpyGo(a[c], x[c*n:(c+1)*n], want)
				}
				requireSameBits(t, fmt.Sprintf("axpyCols %d columns", cols), n, a[0], got[:n], want)
				if got[n] != guard {
					t.Fatalf("axpyCols %d columns n=%d wrote past y", cols, n)
				}
			}
		}
	}
}

// TestAxpySignColsMatchPerColumn does the same for the ±1 update against
// one axpySignGo per column, with random sign words.
func TestAxpySignColsMatchPerColumn(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	as := testMultipliers(r)
	for cols := 1; cols <= rng.MaxColumns; cols++ {
		for n := 0; n <= 130; n++ {
			w := (n + 63) / 64
			for trial := 0; trial < 3; trial++ {
				a := make([]float64, cols)
				for c := range a {
					a[c] = as[r.Intn(len(as))]
				}
				words := make([]uint64, cols*w)
				for i := range words {
					words[i] = r.Uint64()
				}
				y := testVector(r, n)
				got := append(append([]float64(nil), y...), guard)
				want := append([]float64(nil), y...)
				axpySignCols(a, words, got[:n])
				for c := range a {
					axpySignGo(a[c], words[c*w:(c+1)*w], want)
				}
				requireSameBits(t, fmt.Sprintf("axpySignCols %d columns", cols), n, a[0], got[:n], want)
				if got[n] != guard {
					t.Fatalf("axpySignCols %d columns n=%d wrote past y", cols, n)
				}
			}
		}
	}
}
