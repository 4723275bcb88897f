package rng

import (
	"math"
	"math/bits"
)

// sjltBase is the reserved stream checkpoint row used to draw an SJLT
// column's positions and signs: FillSJLTColumn repositions the source at
// (sjltBase, j) rather than at the kernel's block-row checkpoint. Keying
// the draw off the global column index j alone makes the sparse column a
// pure function of (seed, source, d, s, j) — identical under any blocking,
// worker count, scheduler, or shard split, for both the xoshiro reseeding
// scheme and the Philox counter. Kernel checkpoints use r = blockRow,
// which is far below 2⁶², so the streams can never collide.
const sjltBase uint64 = 1 << 62

// SJLTSparsity resolves the effective per-column nonzero count s for a
// sparse-family distribution at sketch dimension d. CountSketch is pinned
// to s = 1; SJLT uses the requested value, defaulting to ⌈√d⌉ when
// requested ≤ 0 (the 1/√d-density rule from the sparse-JL literature),
// and clamps to [1, d] (s ≥ d degenerates to a dense ±1/√s column set).
// Non-sparse distributions return 0.
func SJLTSparsity(dist Distribution, requested, d int) int {
	if !IsSparse(dist) {
		return 0
	}
	if d <= 0 {
		return 1
	}
	if dist == CountSketch {
		return 1
	}
	s := requested
	if s <= 0 {
		s = int(math.Ceil(math.Sqrt(float64(d))))
	}
	if s < 1 {
		s = 1
	}
	if s > d {
		s = d
	}
	return s
}

// SJLTScale is the nonzero magnitude 1/√s, chosen so E[S_ij²] = 1/d and
// sketches across the family are directly comparable at equal d. For the
// bit-exactness tests note 1/√s is a power of two iff s is a power of four
// (s = 1, 4, 16, ...); only those sparsities make SJLT linearity exact in
// floating point.
func SJLTScale(s int) float64 { return 1 / math.Sqrt(float64(s)) }

// SJLTLayout is the block construction (OSNAP) of an s-sparse column of S
// with d rows: [0, d) is split into s contiguous blocks — the first d%s of
// size ⌊d/s⌋+1, the rest ⌊d/s⌋ — and nonzero b of the column lies in
// block b. It is the one home of the placement rule: FillSJLTColumn and
// the Go kernels decode through Place, and the kernels' vector decode
// takes its block starts, sizes and reciprocals from Block.
type SJLTLayout struct {
	q, rem int    // block size ⌊d/s⌋; the first rem blocks are one taller
	mask   uint64 // q-1 when every block is a power of two tall
	pow2   bool
	recip  uint64 // ⌊(2⁶⁴−1)/q⌋
	recip1 uint64 // ⌊(2⁶⁴−1)/(q+1)⌋, for the first rem blocks
}

// NewSJLTLayout returns the block layout of s nonzeros over d rows, for
// 1 ≤ s ≤ d (SJLTSparsity resolves s into that range).
func NewSJLTLayout(d, s int) SJLTLayout {
	q, rem := d/s, d%s
	pow2 := rem == 0 && q&(q-1) == 0
	return SJLTLayout{q: q, rem: rem, mask: uint64(q - 1), pow2: pow2,
		recip: Reciprocal(uint64(q)), recip1: Reciprocal(uint64(q + 1))}
}

// Reciprocal returns ⌊(2⁶⁴−1)/q⌋ for q ≥ 1, the multiplier Remainder
// takes.
func Reciprocal(q uint64) uint64 { return math.MaxUint64 / q }

// Remainder returns u mod q for q ≥ 1 without a divide, given recip =
// Reciprocal(q). The high word of u·recip is ⌊u/q⌋ or one less: recip·q
// lies in (2⁶⁴−1−q, 2⁶⁴−1], so u·recip/2⁶⁴ lies in (u/q − 1, u/q]. One
// conditional subtraction corrects the remainder.
func Remainder(u, q, recip uint64) uint64 {
	hi, _ := bits.Mul64(u, recip)
	r := u - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// Pow2 reports whether every block is the same power of two tall, and if
// so the mask that takes a word modulo the block size.
func (l SJLTLayout) Pow2() (mask uint64, ok bool) { return l.mask, l.pow2 }

// Block returns where block b starts, how tall it is and its size's
// Reciprocal: nonzero b's row is start + Remainder(u, size, recip).
func (l SJLTLayout) Block(b int) (start, size int, recip uint64) {
	if b < l.rem {
		return b * (l.q + 1), l.q + 1, l.recip1
	}
	return b*l.q + l.rem, l.q, l.recip
}

// Place decodes the raw word u drawn for nonzero b of a column: its row,
// blockStart + u mod blockSize, and its sign, the top bit of u as a mask
// (1<<63 for −, 0 for +) to XOR into a float's bits. The top bit is
// independent of the position bits for any block size far below 2⁶³, and
// flipping a float's sign bit negates it exactly, so ±x is x's bits XOR
// sign. Equal power-of-two blocks (d = 64, s = 8, say) take u mod q as
// u & (q-1); other sizes take it as a multiply-high Remainder.
func (l SJLTLayout) Place(b int, u uint64) (pos int, sign uint64) {
	const top = 1 << 63
	if l.pow2 {
		return b*l.q + int(u&l.mask), u & top
	}
	start, size, recip := l.Block(b)
	return start + int(Remainder(u, uint64(size), recip)), u & top
}

// FillSJLTColumn regenerates column j of the sparse sketching matrix S:
// row positions into pos[:s] (strictly ascending, all in [0, d)) and
// signed values ±scale into val[:s], one raw word per nonzero placed by
// SJLTLayout.Place. The draw always starts at the reserved checkpoint
// (sjltBase, j), so callers need not (and must not) SetState around it.
// pos and val must have length ≥ s.
func (sp *Sampler) FillSJLTColumn(j uint64, d, s int, scale float64, pos []int, val []float64) {
	sp.src.SetState(sjltBase, j)
	sp.zig.reset()
	l := NewSJLTLayout(d, s)
	sbits := math.Float64bits(scale)
	for b, u := range sp.raw(s) {
		p, sign := l.Place(b, u)
		pos[b], val[b] = p, math.Float64frombits(sbits^sign)
	}
}
