// Package rng implements the random-number substrate of the paper (§IV-B):
// an XOR-shift family generator (xoshiro256++) with O(1) state checkpointing
// at block coordinates; a 4-lane batched variant, the counterpart of the
// SIMD xoshiro the Julia code uses, which runs in AVX-512 assembly where
// the CPU has it and in pure Go elsewhere; a Philox4x32-10 counter-based
// RNG (Random123 style) for blocking-independent reproducibility; and the
// output distributions the paper compares in Figure 4: uniform (-1,1),
// Rademacher ±1, Gaussian, and the integer "scaling trick". The kernels
// read S through batched draws (columns.go) that seed the checkpoints of
// many columns of one block row in one pass and then draw each column,
// bit for bit what single-column draws would give.
package rng

import "math/bits"

// SplitMix64 advances the given state and returns the next output of the
// splitmix64 sequence. It is the recommended seeder for xoshiro state and is
// how block checkpoints (r, j) are folded into fresh generator states.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix64 is a stateless strong 64-bit mixer (splitmix64 finaliser) used to
// combine seed and block coordinates into checkpoint states.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Xoshiro256 is the xoshiro256++ generator of Blackman & Vigna, the family
// the paper's Julia implementation builds on. The zero value is not valid;
// construct with NewXoshiro256 or call Seed.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a generator seeded from seed via splitmix64.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := &Xoshiro256{}
	x.Seed(seed)
	return x
}

// Seed resets the state from a 64-bit seed using splitmix64, guaranteeing a
// nonzero state.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := seed
	x.s0 = SplitMix64(&sm)
	x.s1 = SplitMix64(&sm)
	x.s2 = SplitMix64(&sm)
	x.s3 = SplitMix64(&sm)
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9E3779B97F4A7C15 // all-zero state is the one forbidden point
	}
}

// Uint64 returns the next 64 random bits (xoshiro256++ scrambler).
func (x *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(x.s0+x.s3, 23) + x.s0
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result
}

// Float64 returns a uniform sample in [0, 1) with 53-bit resolution.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) * 0x1p-53
}

// Jump advances the state by 2^128 steps, equivalent to 2^128 calls to
// Uint64; it partitions the period into non-overlapping streams (used by
// tests that check stream independence).
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C, 0xA9582618E03FC9AA, 0x39ABDC4529B1661C}
	var t0, t1, t2, t3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				t0 ^= x.s0
				t1 ^= x.s1
				t2 ^= x.s2
				t3 ^= x.s3
			}
			x.Uint64()
		}
	}
	x.s0, x.s1, x.s2, x.s3 = t0, t1, t2, t3
}

// BatchXoshiro is the 4-lane interleaved xoshiro256++ generator: word i of
// a draw comes from lane i mod 4, and the four streams advance together,
// which is the instruction-level parallelism the paper gets from SIMD
// xoshiro in Julia. Where the CPU has AVX-512 (F+DQ+VL) the four lanes
// live in one YMM register, and seeding and the raw and uniform fills run
// in assembly (avx512_amd64.s). Elsewhere, and under the purego build tag,
// the Go loops in this file run instead. They keep the lanes in four sets
// of scalar registers and are the reference the assembly is tested against
// bit for bit (DESIGN.md §1).
//
// Checkpoints are cheap: SetState caches the seed-and-row half of the
// checkpoint value across calls with the same r, and the lanes are seeded
// on the first draw after it. The kernels do not come through here: they
// use the batched draws of columns.go, which seed the checkpoints of many
// columns of one block row in one pass.
//
// One generator belongs to one worker, which writes it on every column,
// so the struct is padded to whole cache lines (DESIGN.md §5): no other
// worker's state shares a line with it, and the 32-byte lane rows the
// assembly loads never straddle one.
type BatchXoshiro struct {
	s      [4][4]uint64 // s[word][lane]
	seeded bool         // s holds the lanes of checkpoint value v
	v      uint64       // checkpoint value the lanes are seeded from
	seed   uint64
	r      uint64   // row of the last checkpoint
	rmix   uint64   // rowMix(seed, r)
	_      [24]byte // pads the struct to 192 bytes, 3 cache lines
}

// Lanes is the interleave width of BatchXoshiro.
const Lanes = 4

// NewBatchXoshiro returns a 4-lane generator derived from seed.
func NewBatchXoshiro(seed uint64) *BatchXoshiro {
	return &BatchXoshiro{v: seed, seed: seed, rmix: rowMix(seed, 0)}
}

// rowMix and colMix are the two halves of checkpoint (r, j)'s value
// rowMix(seed, r) ^ colMix(j).
func rowMix(seed, r uint64) uint64 { return mix64(seed ^ mix64(r*0x9E3779B97F4A7C15+1)) }
func colMix(j uint64) uint64       { return mix64(j*0xBF58476D1CE4E5B9 + 2) }

// SetState repositions the generator at block checkpoint (r, j) in O(1)
// (§IV-B: "utilizing blocks as checkpoints"). The same (seed, r, j) always
// yields the same stream regardless of what was generated before, which is
// what makes the sketch reproducible and thread-schedule independent.
func (b *BatchXoshiro) SetState(r, j uint64) {
	b.v = b.rowHalf(r) ^ colMix(j)
	b.seeded = false
}

// ready seeds the lanes on the first draw after a checkpoint, in one
// vector pass where the backend has one.
func (b *BatchXoshiro) ready() {
	if b.seeded {
		return
	}
	if useAVX512 {
		seedLanesAVX(&b.s, b.v)
	} else {
		b.s = seedColumn(b.v)
	}
	b.seeded = true
}

// seedColumn returns the four lanes seeded from checkpoint value v. Lane
// k's state words are the splitmix64 outputs 4k+1..4k+4 of the sequence
// started at v.
func seedColumn(v uint64) (s [4][4]uint64) {
	for k := 0; k < Lanes; k++ {
		seedLane(&s, v, k)
	}
	return s
}

// seedLane seeds lane k of s from checkpoint value v, moving it off the
// all-zero state, the one forbidden point.
func seedLane(s *[4][4]uint64, v uint64, k int) {
	sm := v + uint64(4*k)*0x9E3779B97F4A7C15
	for w := range s {
		s[w][k] = SplitMix64(&sm)
	}
	if s[0][k]|s[1][k]|s[2][k]|s[3][k] == 0 {
		s[0][k] = 0x9E3779B97F4A7C15
	}
}

// uniform11 maps a raw word to (-1, 1): its top 54 bits as a signed
// fixed-point fraction. The conversion is exact, and so is the scaling.
func uniform11(u uint64) float64 { return float64(int64(u)>>10) * 0x1p-53 }

// Uint64s fills dst with the next len(dst) raw 64-bit outputs, drawing from
// the four lanes round-robin in groups of four. A draw always starts at
// lane 0, so a tail shorter than four words reads lanes [0, len(tail)).
func (b *BatchXoshiro) Uint64s(dst []uint64) { b.uint64s(dst, useAVX512) }

// uint64s is Uint64s on the backend vec selects.
func (b *BatchXoshiro) uint64s(dst []uint64, vec bool) {
	b.ready()
	drawRaw(&b.s, dst, vec)
}

// drawRaw fills dst with the next raw words of the lanes in s, which must
// be seeded, and advances them.
func drawRaw(s *[4][4]uint64, dst []uint64, vec bool) {
	n := len(dst) &^ (Lanes - 1)
	if n > 0 {
		if vec {
			uint64sAVX(s, dst[:n])
		} else {
			uint64sGo(s, dst[:n])
		}
	}
	for lane := 0; n < len(dst); n, lane = n+1, lane+1 {
		s0, s1, s2, s3 := &s[0], &s[1], &s[2], &s[3]
		r := bits.RotateLeft64(s0[lane]+s3[lane], 23) + s0[lane]
		t := s1[lane] << 17
		s2[lane] ^= s0[lane]
		s3[lane] ^= s1[lane]
		s1[lane] ^= s2[lane]
		s0[lane] ^= s3[lane]
		s2[lane] ^= t
		s3[lane] = bits.RotateLeft64(s3[lane], 45)
		dst[n] = r
	}
}

// uint64sGo is the Go reference for the whole groups of four of a raw
// draw: len(dst) must be a multiple of Lanes. The four lane states live in
// registers for the duration of the loop.
func uint64sGo(s *[4][4]uint64, dst []uint64) {
	a0, a1, a2, a3 := s[0][0], s[1][0], s[2][0], s[3][0]
	c0, c1, c2, c3 := s[0][1], s[1][1], s[2][1], s[3][1]
	e0, e1, e2, e3 := s[0][2], s[1][2], s[2][2], s[3][2]
	g0, g1, g2, g3 := s[0][3], s[1][3], s[2][3], s[3][3]
	for i := 0; i+Lanes <= len(dst); i += Lanes {
		r0 := bits.RotateLeft64(a0+a3, 23) + a0
		r1 := bits.RotateLeft64(c0+c3, 23) + c0
		r2 := bits.RotateLeft64(e0+e3, 23) + e0
		r3 := bits.RotateLeft64(g0+g3, 23) + g0
		t0, t1, t2, t3 := a1<<17, c1<<17, e1<<17, g1<<17
		a2 ^= a0
		c2 ^= c0
		e2 ^= e0
		g2 ^= g0
		a3 ^= a1
		c3 ^= c1
		e3 ^= e1
		g3 ^= g1
		a1 ^= a2
		c1 ^= c2
		e1 ^= e2
		g1 ^= g2
		a0 ^= a3
		c0 ^= c3
		e0 ^= e3
		g0 ^= g3
		a2 ^= t0
		c2 ^= t1
		e2 ^= t2
		g2 ^= t3
		a3 = bits.RotateLeft64(a3, 45)
		c3 = bits.RotateLeft64(c3, 45)
		e3 = bits.RotateLeft64(e3, 45)
		g3 = bits.RotateLeft64(g3, 45)
		out := dst[i : i+4 : i+4]
		out[0], out[1], out[2], out[3] = r0, r1, r2, r3
	}
	s[0][0], s[1][0], s[2][0], s[3][0] = a0, a1, a2, a3
	s[0][1], s[1][1], s[2][1], s[3][1] = c0, c1, c2, c3
	s[0][2], s[1][2], s[2][2], s[3][2] = e0, e1, e2, e3
	s[0][3], s[1][3], s[2][3], s[3][3] = g0, g1, g2, g3
}

// FillUniform11 writes len(dst) uniform (-1, 1) samples directly, fusing
// generation and conversion so raw words never round-trip through memory.
// This is the kernel-facing fast path of the default distribution.
func (b *BatchXoshiro) FillUniform11(dst []float64) { b.fillUniform11(dst, useAVX512) }

// fillUniform11 is FillUniform11 on the backend vec selects.
func (b *BatchXoshiro) fillUniform11(dst []float64, vec bool) {
	b.ready()
	drawUniform11(&b.s, dst, vec)
}

// drawUniform11 fills dst with the next uniform (-1, 1) samples of the
// lanes in s, which must be seeded, and advances them.
func drawUniform11(s *[4][4]uint64, dst []float64, vec bool) {
	n := len(dst) &^ (Lanes - 1)
	if n > 0 {
		if vec {
			fillUniform11AVX(s, dst[:n])
		} else {
			fillUniform11Go(s, dst[:n])
		}
	}
	if n < len(dst) {
		var tail [Lanes]uint64
		drawRaw(s, tail[:len(dst)-n], vec)
		for k := range dst[n:] {
			dst[n+k] = uniform11(tail[k])
		}
	}
}

// fillUniform11Go is the Go reference for the whole groups of four of a
// uniform fill: len(dst) must be a multiple of Lanes.
func fillUniform11Go(s *[4][4]uint64, dst []float64) {
	a0, a1, a2, a3 := s[0][0], s[1][0], s[2][0], s[3][0]
	c0, c1, c2, c3 := s[0][1], s[1][1], s[2][1], s[3][1]
	e0, e1, e2, e3 := s[0][2], s[1][2], s[2][2], s[3][2]
	g0, g1, g2, g3 := s[0][3], s[1][3], s[2][3], s[3][3]
	const scale = 0x1p-53
	for i := 0; i+Lanes <= len(dst); i += Lanes {
		r0 := bits.RotateLeft64(a0+a3, 23) + a0
		r1 := bits.RotateLeft64(c0+c3, 23) + c0
		r2 := bits.RotateLeft64(e0+e3, 23) + e0
		r3 := bits.RotateLeft64(g0+g3, 23) + g0
		t0, t1, t2, t3 := a1<<17, c1<<17, e1<<17, g1<<17
		a2 ^= a0
		c2 ^= c0
		e2 ^= e0
		g2 ^= g0
		a3 ^= a1
		c3 ^= c1
		e3 ^= e1
		g3 ^= g1
		a1 ^= a2
		c1 ^= c2
		e1 ^= e2
		g1 ^= g2
		a0 ^= a3
		c0 ^= c3
		e0 ^= e3
		g0 ^= g3
		a2 ^= t0
		c2 ^= t1
		e2 ^= t2
		g2 ^= t3
		a3 = bits.RotateLeft64(a3, 45)
		c3 = bits.RotateLeft64(c3, 45)
		e3 = bits.RotateLeft64(e3, 45)
		g3 = bits.RotateLeft64(g3, 45)
		out := dst[i : i+4 : i+4] // one bounds check for the group
		out[0] = float64(int64(r0)>>10) * scale
		out[1] = float64(int64(r1)>>10) * scale
		out[2] = float64(int64(r2)>>10) * scale
		out[3] = float64(int64(r3)>>10) * scale
	}
	s[0][0], s[1][0], s[2][0], s[3][0] = a0, a1, a2, a3
	s[0][1], s[1][1], s[2][1], s[3][1] = c0, c1, c2, c3
	s[0][2], s[1][2], s[2][2], s[3][2] = e0, e1, e2, e3
	s[0][3], s[1][3], s[2][3], s[3][3] = g0, g1, g2, g3
}

// FillScaledInt writes len(dst) int32-valued float64 samples (two per raw
// word), fused like FillUniform11. This is the scaling-trick fast path: no
// per-sample scaling multiply, half the generator work per sample.
func (b *BatchXoshiro) FillScaledInt(dst []float64) {
	b.ready()
	a0, a1, a2, a3 := b.s[0][0], b.s[1][0], b.s[2][0], b.s[3][0]
	c0, c1, c2, c3 := b.s[0][1], b.s[1][1], b.s[2][1], b.s[3][1]
	e0, e1, e2, e3 := b.s[0][2], b.s[1][2], b.s[2][2], b.s[3][2]
	g0, g1, g2, g3 := b.s[0][3], b.s[1][3], b.s[2][3], b.s[3][3]
	i := 0
	for ; i+2*Lanes <= len(dst); i += 2 * Lanes {
		r0 := bits.RotateLeft64(a0+a3, 23) + a0
		r1 := bits.RotateLeft64(c0+c3, 23) + c0
		r2 := bits.RotateLeft64(e0+e3, 23) + e0
		r3 := bits.RotateLeft64(g0+g3, 23) + g0
		t0, t1, t2, t3 := a1<<17, c1<<17, e1<<17, g1<<17
		a2 ^= a0
		c2 ^= c0
		e2 ^= e0
		g2 ^= g0
		a3 ^= a1
		c3 ^= c1
		e3 ^= e1
		g3 ^= g1
		a1 ^= a2
		c1 ^= c2
		e1 ^= e2
		g1 ^= g2
		a0 ^= a3
		c0 ^= c3
		e0 ^= e3
		g0 ^= g3
		a2 ^= t0
		c2 ^= t1
		e2 ^= t2
		g2 ^= t3
		a3 = bits.RotateLeft64(a3, 45)
		c3 = bits.RotateLeft64(c3, 45)
		e3 = bits.RotateLeft64(e3, 45)
		g3 = bits.RotateLeft64(g3, 45)
		out := dst[i : i+8 : i+8]
		out[0] = float64(int32(uint32(r0)))
		out[1] = float64(int32(uint32(r0 >> 32)))
		out[2] = float64(int32(uint32(r1)))
		out[3] = float64(int32(uint32(r1 >> 32)))
		out[4] = float64(int32(uint32(r2)))
		out[5] = float64(int32(uint32(r2 >> 32)))
		out[6] = float64(int32(uint32(r3)))
		out[7] = float64(int32(uint32(r3 >> 32)))
	}
	b.s[0][0], b.s[1][0], b.s[2][0], b.s[3][0] = a0, a1, a2, a3
	b.s[0][1], b.s[1][1], b.s[2][1], b.s[3][1] = c0, c1, c2, c3
	b.s[0][2], b.s[1][2], b.s[2][2], b.s[3][2] = e0, e1, e2, e3
	b.s[0][3], b.s[1][3], b.s[2][3], b.s[3][3] = g0, g1, g2, g3
	if i < len(dst) {
		rem := len(dst) - i
		var tail [Lanes]uint64
		b.Uint64s(tail[:(rem+1)/2])
		for k := 0; i < len(dst); i, k = i+1, k+1 {
			u := tail[k/2]
			if k%2 == 1 {
				u >>= 32
			}
			dst[i] = float64(int32(uint32(u)))
		}
	}
}

// ScalarXoshiroSource adapts the scalar Xoshiro256 to the Source interface
// (used by the RNG-lanes ablation bench to quantify the batching win).
// Like every Source, it is padded to a whole cache line: one worker
// writes it on every column.
type ScalarXoshiroSource struct {
	x    Xoshiro256
	seed uint64
	_    [24]byte // pads the struct to 64 bytes
}

// NewScalarXoshiroSource returns a scalar single-lane source.
func NewScalarXoshiroSource(seed uint64) *ScalarXoshiroSource {
	s := &ScalarXoshiroSource{seed: seed}
	s.x.Seed(seed)
	return s
}

// SetState repositions at block checkpoint (r, j) in O(1).
func (s *ScalarXoshiroSource) SetState(r, j uint64) {
	s.x.Seed(rowMix(s.seed, r) ^ colMix(j))
}

// Uint64s fills dst from the single scalar stream.
func (s *ScalarXoshiroSource) Uint64s(dst []uint64) {
	for i := range dst {
		dst[i] = s.x.Uint64()
	}
}
