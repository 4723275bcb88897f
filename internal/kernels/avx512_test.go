package kernels

import (
	"math"
	"math/rand"
	"testing"
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
			t.Fatalf("%s n=%d a=%g: [%d] = %x (%g) on AVX-512, %x (%g) in Go",
				what, n, a, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAVX512AxpyMatchesGo compares axpy on the assembly backend with the Go
// loop bit for bit, over every length up to 260 (every tail), multipliers
// across 600 binades and subnormal operands.
func TestAVX512AxpyMatchesGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(5))
	as := testMultipliers(r)
	for n := 0; n <= 260; n++ {
		for _, a := range as {
			x, y := testVector(r, n), testVector(r, n)
			got, want := append([]float64(nil), y...), append([]float64(nil), y...)
			axpy(a, x, got)
			axpyGo(a, x, want, 0)
			requireSameBits(t, "axpy", n, a, got, want)
		}
	}
}

// TestAVX512AxpySignMatchesGo does the same for the opmask axpySign, with
// random sign words.
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
			axpySign(a, words, got)
			axpySignGo(a, words, want, 0)
			requireSameBits(t, "axpySign", n, a, got, want)
		}
	}
}
