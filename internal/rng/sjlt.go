package rng

import "math"

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

// FillSJLTColumn regenerates column j of the sparse sketching matrix S:
// row positions into pos[:s] (strictly ascending, all in [0, d)) and
// signed values ±scale into val[:s]. The block/OSNAP construction
// partitions [0, d) into s contiguous blocks — the first d%s of size
// ⌊d/s⌋+1, the rest ⌊d/s⌋ — and places exactly one nonzero per block:
// position = blockStart + word % blockSize, sign = bit 63 of the word.
// One raw word per nonzero; the draw always starts at the reserved
// checkpoint (sjltBase, j), so callers need not (and must not) SetState
// around it. pos and val must have length ≥ s.
func (sp *Sampler) FillSJLTColumn(j uint64, d, s int, scale float64, pos []int, val []float64) {
	sp.src.SetState(sjltBase, j)
	sp.zig.reset()
	placeSJLT(sp.raw(s), d, s, scale, pos, val)
}

// placeSJLT maps the raw words w, one per nonzero, to the positions and
// values of len(w)/s s-sparse columns: column c's at [c*s, (c+1)*s).
func placeSJLT(w []uint64, d, s int, scale float64, pos []int, val []float64) {
	pos, val = pos[:len(w)], val[:len(w)]
	// ±scale from the top bit, branch-free: flipping the sign bit is
	// exactly scale·(1−2·bit), and the top bit is independent of the
	// position bits for any blockSize far below 2⁶³.
	sbits := math.Float64bits(scale)
	const top = 1 << 63
	q, rem := d/s, d%s
	if rem == 0 && q&(q-1) == 0 {
		// Equal power-of-two blocks (d = 64, s = 8, say): u % q is u & (q-1).
		mask := uint64(q - 1)
		for c := 0; c < len(w); c += s {
			for b, u := range w[c : c+s] {
				pos[c+b] = b*q + int(u&mask)
				val[c+b] = math.Float64frombits(sbits ^ u&top)
			}
		}
		return
	}
	for c := 0; c < len(w); c += s {
		start := 0
		for b, u := range w[c : c+s] {
			size := q
			if b < rem {
				size++
			}
			pos[c+b] = start + int(u%uint64(size))
			val[c+b] = math.Float64frombits(sbits ^ u&top)
			start += size
		}
	}
}
