package rng

import (
	"math"
	"math/rand"
	"testing"
)

func requireAVX512(t *testing.T) {
	t.Helper()
	if !useAVX512 {
		t.Skip("no AVX-512 backend to compare: the CPU lacks AVX512F+DQ+VL or the build uses the purego tag")
	}
}

// randomLanes returns a generator whose four lanes hold random states.
func randomLanes(r *rand.Rand) *BatchXoshiro {
	b := NewBatchXoshiro(r.Uint64())
	for w := range b.s {
		for k := range b.s[w] {
			b.s[w][k] = r.Uint64()
		}
	}
	b.seeded = true
	return b
}

// TestAVX512SeedLanesMatchGo compares the vectorised splitmix64 seeding of
// all four lanes with the Go one, over random checkpoint values.
func TestAVX512SeedLanesMatchGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := r.Uint64()
		if i < 4 {
			v = []uint64{0, 1, math.MaxUint64, 0x9E3779B97F4A7C15}[i]
		}
		var vec [4][4]uint64
		seedLanesAVX(&vec, v)
		if ref := seedColumn(v); vec != ref {
			t.Fatalf("v=%#x: AVX-512 seeding %x, Go %x", v, vec, ref)
		}
	}
}

// TestAVX512FillMatchesGo compares the raw and the uniform fills bit for
// bit, outputs and final lane state, for every length up to 260 from
// random states.
func TestAVX512FillMatchesGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(2))
	for n := 0; n <= 260; n++ {
		for rep := 0; rep < 4; rep++ {
			vec := randomLanes(r)
			ref := *vec
			got, want := make([]uint64, n), make([]uint64, n)
			vec.uint64s(got, true)
			ref.uint64s(want, false)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("raw n=%d: [%d] = %#x on AVX-512, %#x in Go", n, i, got[i], want[i])
				}
			}
			gotU, wantU := make([]float64, n), make([]float64, n)
			vec.fillUniform11(gotU, true)
			ref.fillUniform11(wantU, false)
			requireSameBits(t, "fill", n, gotU, wantU)
			if vec.s != ref.s {
				t.Fatalf("n=%d: final state differs", n)
			}
		}
	}
}

func requireSameBits(t *testing.T, what string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: [%d] = %x (%g) on AVX-512, %x (%g) in Go",
				what, n, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAVX512Columns4MatchGo compares the batched seed-and-draw pass of
// the uniform columns with seedLane followed by the Go uniform fill,
// column by column, for every batch size and every column length up to
// 70, from random checkpoint values. Words past the batch must stay
// untouched.
func TestAVX512Columns4MatchGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(3))
	const guard = 0x5A5A5A5A5A5A5A5A
	for rows := 1; rows <= 70; rows++ {
		for n := 1; n <= MaxColumns; n++ {
			var v [MaxColumns]uint64
			for c := range v {
				v[c] = r.Uint64()
			}
			if rows == 1 {
				v = [MaxColumns]uint64{0, 1, math.MaxUint64, 0x9E3779B97F4A7C15}
			}
			gotU := make([]float64, n*rows+1)
			gotU[n*rows] = math.Float64frombits(guard)
			fillUniform4AVX(&v, n, rows, gotU[:n*rows])
			if math.Float64bits(gotU[n*rows]) != guard {
				t.Fatalf("rows=%d n=%d: wrote past the batch", rows, n)
			}
			for c := 0; c < n; c++ {
				s := seedColumn(v[c])
				wantU := make([]float64, rows)
				drawUniform11(&s, wantU, false)
				requireSameBits(t, "uniform columns", rows, gotU[c*rows:(c+1)*rows], wantU)
			}
		}
	}
}

// rawColumnsGo is the reference of rawColumnsAVX: seedColumn, then the Go
// raw draw, column by column.
func rawColumnsGo(rmix uint64, js []int, w int, dst []uint64) {
	for c, j := range js {
		s := seedColumn(rmix ^ colMix(uint64(j)))
		drawRaw(&s, dst[c*w:(c+1)*w], false)
	}
}

// TestAVX512RawColumnsMatchGo compares the slab-wide raw draw with
// seedLane followed by the Go raw draw, column by column: every word
// count a ±1 block row of up to 520 rows or an SJLT column of up to 40
// nonzeros needs, batches of 1 to 40 columns (every tail of the 8, 4 and
// 2 columns per register), and column indices at the ends of their
// range. Words past the batch must stay untouched.
func TestAVX512RawColumnsMatchGo(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(4))
	const guard = 0x5A5A5A5A5A5A5A5A
	for w := 1; w <= 40; w++ {
		for n := 1; n <= 40; n++ {
			js := batchJS(r, n)
			rmix := r.Uint64()
			got := make([]uint64, n*w+1)
			got[n*w] = guard
			rawColumnsAVX(rmix, js, w, got[:n*w])
			want := make([]uint64, n*w)
			rawColumnsGo(rmix, js, w, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d n=%d js=%v: column %d word %d = %#x on AVX-512, %#x in Go", w, n, js, i/w, i%w, got[i], want[i])
				}
			}
			if got[n*w] != guard {
				t.Fatalf("w=%d n=%d: wrote past the batch", w, n)
			}
		}
	}
}
