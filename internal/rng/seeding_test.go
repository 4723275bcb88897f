package rng

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestBackendReport logs which backend the package's equivalence tests
// ran on and the CPUID bits behind the choice: the TestAVX512* tests skip
// where the CPU lacks AVX-512, so a green run alone does not say they ran.
func TestBackendReport(t *testing.T) {
	t.Logf("rng backend: useAVX512=%v; %s", useAVX512, Backend())
}

// leanWords draws the first n ≤ 8 words of the lanes seeded from
// checkpoint value v the way rawColumnsAVX does: s0, s1 and s3 only, s2
// left zero, and no all-zero fix.
func leanWords(v uint64, n int) []uint64 {
	var s [4][4]uint64
	for k := 0; k < Lanes; k++ {
		sm := v + uint64(4*k)*0x9E3779B97F4A7C15
		s[0][k] = SplitMix64(&sm)
		s[1][k] = SplitMix64(&sm)
		SplitMix64(&sm)
		s[3][k] = SplitMix64(&sm)
	}
	out := make([]uint64, n)
	drawRaw(&s, out, false)
	return out
}

// leanValues are the checkpoint values the lean-seeding tests use: every
// v that makes one state word zero, −(4k+w+1)·φ for lane k and word w,
// their neighbours, and n random ones.
func leanValues(r *rand.Rand, n int) []uint64 {
	const phi = 0x9E3779B97F4A7C15
	var vs []uint64
	for i := uint64(1); i <= 16; i++ {
		v := -(i * phi)
		vs = append(vs, v, v-1, v+1)
	}
	vs = append(vs, 0, math.MaxUint64)
	for i := 0; i < n; i++ {
		vs = append(vs, r.Uint64())
	}
	return vs
}

// TestLeanSeeding checks the argument that lets the slab-wide raw draw
// seed only the state words it reads. mix64 is a bijection that maps only
// 0 to 0, and a lane's four splitmix64 inputs differ by 1–3·φ, so at most
// one of its state words is zero and seedLane's all-zero fix never fires.
// Then the first two steps, which never read s2, give the same words from
// s0, s1 and s3 alone as seedColumn followed by the draw.
func TestLeanSeeding(t *testing.T) {
	if mix64(0) != 0 {
		t.Fatal("mix64(0) != 0")
	}
	r := rand.New(rand.NewSource(9))
	for i, v := range leanValues(r, 1_000_000) {
		if i < 48 { // the zero-word values: no lane is all zero
			for k := 0; k < Lanes; k++ {
				sm, zeros := v+uint64(4*k)*0x9E3779B97F4A7C15, 0
				for w := 0; w < 4; w++ {
					if SplitMix64(&sm) == 0 {
						zeros++
					}
				}
				if zeros > 1 {
					t.Fatalf("v=%#x lane %d: %d zero state words", v, k, zeros)
				}
			}
		}
		s := seedColumn(v)
		want := make([]uint64, 8)
		drawRaw(&s, want, false)
		got := leanWords(v, 8)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("v=%#x word %d: %#x from s0/s1/s3, %#x after seedColumn", v, w, got[w], want[w])
			}
		}
	}
}

// TestAVX512LeanSeeding runs the same checkpoint values through
// rawColumnsAVX at every word count its lean and two-step seedings serve,
// steering each value in through the row half: rmix = v ^ colMix(j).
func TestAVX512LeanSeeding(t *testing.T) {
	requireAVX512(t)
	r := rand.New(rand.NewSource(10))
	js := []int{12345}
	got := make([]uint64, 8)
	for _, v := range leanValues(r, 100_000) {
		want := leanWords(v, 8)
		for _, w := range []int{1, 2, 3, 4, 5, 8} {
			rawColumnsAVX(v^colMix(uint64(js[0])), js, w, got[:w])
			for i := 0; i < w; i++ {
				if got[i] != want[i] {
					t.Fatalf("v=%#x w=%d: word %d = %#x on AVX-512, %#x from seedColumn", v, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRemainderMatchesModulo checks the multiply-high remainder SJLTLayout
// places nonzeros with against %: every q ≤ 4096 and 10⁵ random q < 2³²,
// each at the words next to multiples of q, the ends of the range and
// random words.
func TestRemainderMatchesModulo(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func(q uint64, words int) {
		recip := Reciprocal(q)
		us := []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1}
		hi := math.MaxUint64 / q
		for _, k := range []uint64{hi, hi - 1, hi / 2, r.Uint64() % hi} {
			us = append(us, k*q, k*q-1, k*q+q-1)
		}
		for i := 0; i < words; i++ {
			us = append(us, r.Uint64())
		}
		for _, u := range us {
			if got, want := Remainder(u, q, recip), u%q; got != want {
				t.Fatalf("Remainder(%#x, %d) = %d, u %% q = %d", u, q, got, want)
			}
		}
	}
	for q := uint64(1); q <= 4096; q++ {
		check(q, 32)
	}
	for i := 0; i < 100_000; i++ {
		check(1+uint64(r.Int63n(1<<32-1)), 4)
	}
	// The reciprocal is exact: q·recip + (2⁶⁴−1) mod q = 2⁶⁴−1.
	for q := uint64(1); q <= 4096; q++ {
		if hi, lo := bits.Mul64(q, Reciprocal(q)); hi != 0 || lo+math.MaxUint64%q != math.MaxUint64 {
			t.Fatalf("Reciprocal(%d) = %#x is not ⌊(2⁶⁴−1)/q⌋", q, Reciprocal(q))
		}
	}
}

// TestSJLTLayoutBlocks checks Block against the layout's definition: the
// blocks tile [0, d) in order, the first d mod s one row taller, and Place
// puts every word inside its nonzero's block.
func TestSJLTLayoutBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, ds := range [][2]int{{64, 8}, {64, 3}, {900, 30}, {900, 8}, {7, 7}, {10, 1}, {1000, 999}} {
		d, s := ds[0], ds[1]
		l := NewSJLTLayout(d, s)
		next := 0
		for b := 0; b < s; b++ {
			start, size, recip := l.Block(b)
			want := d / s
			if b < d%s {
				want++
			}
			if start != next || size != want || recip != Reciprocal(uint64(size)) {
				t.Fatalf("d=%d s=%d: Block(%d) = (%d, %d, %#x), want (%d, %d, ...)", d, s, b, start, size, recip, next, want)
			}
			next += size
			for i := 0; i < 50; i++ {
				u := r.Uint64()
				if p, sign := l.Place(b, u); p != start+int(u%uint64(size)) || sign != u&(1<<63) {
					t.Fatalf("d=%d s=%d: Place(%d, %#x) = (%d, %#x)", d, s, b, u, p, sign)
				}
			}
		}
		if next != d {
			t.Fatalf("d=%d s=%d: blocks end at %d", d, s, next)
		}
	}
}
