package rng

// Philox4x32 is the Philox4x32-10 counter-based RNG of Salmon et al.
// (Random123, SC'11), the CBRNG family §IV-B discusses. The t-th word after
// SetState(r, j) is a pure function of (seed, r+t, j): the counter IS the
// matrix coordinate. Consequently the entries of S are identical no matter
// how the matrix is blocked or scheduled across threads — the
// reproducibility property RandBLAS requires (§IV-C) and that xoshiro
// checkpointing only provides per fixed blocking. The price, which the
// AblationCBRNG bench measures, is one full 10-round Philox block per
// 64 bits of output (several times slower than batched xoshiro, matching
// the ~5x factor the paper reports for Random123).
//
// One worker writes a generator on every column, so the struct is padded
// to a whole cache line (DESIGN.md §5).
type Philox4x32 struct {
	key0, key1 uint32
	r, j       uint64 // block coordinates set by SetState
	t          uint64 // words already emitted since SetState
	seed       uint64
	_          [24]byte // pads the struct to 64 bytes
}

const (
	philoxM0 = 0xD2511F53
	philoxM1 = 0xCD9E8D57
	philoxW0 = 0x9E3779B9 // golden ratio
	philoxW1 = 0xBB67AE85 // sqrt(3)-1
)

// NewPhilox4x32 returns a counter-based generator with key derived from seed.
func NewPhilox4x32(seed uint64) *Philox4x32 {
	return &Philox4x32{key0: uint32(seed), key1: uint32(seed >> 32), seed: seed}
}

// SetState positions the stream at coordinates (r, j). No state mixing
// occurs — outputs depend only on (seed, r+t, j) for t = 0, 1, ….
func (p *Philox4x32) SetState(r, j uint64) {
	p.r = r
	p.j = j
	p.t = 0
}

// philoxRound performs one Philox S-P network round.
func philoxRound(c0, c1, c2, c3, k0, k1 uint32) (uint32, uint32, uint32, uint32) {
	hi0, lo0 := mulhilo(philoxM0, c0)
	hi1, lo1 := mulhilo(philoxM1, c2)
	return hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
}

func mulhilo(a, b uint32) (hi, lo uint32) {
	p := uint64(a) * uint64(b)
	return uint32(p >> 32), uint32(p)
}

// word64 runs the 10-round bijection on counter (idx, j) and returns the
// first 64 output bits.
func (p *Philox4x32) word64(idx uint64) uint64 {
	c0 := uint32(idx)
	c1 := uint32(idx >> 32)
	c2 := uint32(p.j)
	c3 := uint32(p.j >> 32)
	k0, k1 := p.key0, p.key1
	for round := 0; round < 10; round++ {
		c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
		k0 += philoxW0
		k1 += philoxW1
	}
	return uint64(c0) | uint64(c1)<<32
}

// Uint64s fills dst; word i of the fill is word64(r + t + i).
func (p *Philox4x32) Uint64s(dst []uint64) {
	base := p.r + p.t
	for i := range dst {
		dst[i] = p.word64(base + uint64(i))
	}
	p.t += uint64(len(dst))
}
