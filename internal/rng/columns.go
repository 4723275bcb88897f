package rng

import (
	"math/bits"

	"sketchsp/internal/cacheline"
)

// MaxColumns is the most columns one batched draw serves. The kernels
// draw the columns of S they need in groups of up to MaxColumns: the
// nonzeros of one A column (Algorithm 3) or consecutive non-empty sparse
// rows (Algorithm 4). On BatchXoshiro a group's checkpoints are seeded in
// one pass, which is where the per-column cost of a short column goes.
const MaxColumns = 4

// The batched draws below are the only way the kernels read S. Each one
// is, bit for bit, SetState(r, js[c]) followed by the single-column draw,
// once for each c in order; afterwards the generator's position is
// unspecified, so the next draw must start with SetState or another
// batched draw. len(js) must be in [1, MaxColumns].
//
// On BatchXoshiro, a batched uniform or raw draw (the sparse family's
// included) seeds all its checkpoints in one pass and then draws each
// column; where the CPU has AVX-512, one call (fillUniform4AVX,
// uint64s4AVX) does both, with the lanes of two columns in each ZMM
// register, and the lane states never leave the registers. In the Go
// loops a batch of one-word columns (±1 with at most 64 rows,
// CountSketch) computes only the first output of lane 0 of each, with
// firstWord. Every other source and distribution loops over the columns.

// FillColumns writes column js[c] of block row r to dst[c*n:(c+1)*n] for
// each c, where n = len(dst)/len(js).
func (s *Sampler) FillColumns(r uint64, js []int, dst []float64) {
	n := len(dst) / len(js)
	if s.bx != nil && s.dist == Uniform11 {
		s.bx.uniformColumns(r, js, n, dst, useAVX512)
		return
	}
	for c, j := range js {
		s.SetState(r, uint64(j))
		s.Fill(dst[c*n : (c+1)*n])
	}
}

// RawWordsColumns is RawWords for a batch: it returns the raw words
// covering nbits bits of each column js[c] of block row r, column c's
// (nbits+63)/64 words at [c*w, (c+1)*w). The returned slice is valid
// until the next Sampler call.
func (s *Sampler) RawWordsColumns(r uint64, js []int, nbits int) []uint64 {
	w := (nbits + 63) / 64
	out := s.words(len(js) * w)
	s.rawColumns(r, js, w, out)
	return out
}

// SJLTWordsColumns returns the raw words of the s-sparse columns js of
// the sparse family's S, sp per column, drawn at their reserved
// checkpoints: column js[c]'s at [c*sp, (c+1)*sp), word b deciding
// nonzero b through SJLTLayout.Place. This is FillSJLTColumn's draw for a
// batch, without the placement, which the kernels do as they scatter. The
// returned slice is valid until the next Sampler call.
func (s *Sampler) SJLTWordsColumns(js []int, sp int) []uint64 {
	w := s.words(len(js) * sp)
	s.rawColumns(sjltBase, js, sp, w)
	return w
}

// rawColumns fills out[c*w:(c+1)*w] with the first w raw words drawn at
// checkpoint (r, js[c]).
func (s *Sampler) rawColumns(r uint64, js []int, w int, out []uint64) {
	if s.bx != nil {
		s.bx.rawColumns(r, js, w, out, useAVX512)
		return
	}
	for c, j := range js {
		s.src.SetState(r, uint64(j))
		s.src.Uint64s(out[c*w : (c+1)*w])
	}
}

// columnValues returns the checkpoint values of columns js of block row r
// (zero past len(js)), caching the row half as SetState does.
func (b *BatchXoshiro) columnValues(r uint64, js []int) (v [MaxColumns]uint64) {
	if r != b.r {
		b.r, b.rmix = r, rowMix(b.seed, r)
	}
	for c, j := range js {
		v[c] = b.rmix ^ colMix(uint64(j))
	}
	return v
}

// uniformColumns writes rows uniform (-1, 1) samples drawn at the
// checkpoint of each column js[c] of block row r to dst[c*rows:], on the
// backend vec selects: one pass seeds all the columns' lanes and draws
// them, two columns per register, where the CPU has AVX-512.
func (b *BatchXoshiro) uniformColumns(r uint64, js []int, rows int, dst []float64, vec bool) {
	v := b.columnValues(r, js)
	if vec {
		fillUniform4AVX(&v, len(js), rows, dst[:len(js)*rows])
		return
	}
	for c := range js {
		s := seedColumn(v[c])
		drawUniform11(&s, dst[c*rows:(c+1)*rows], false)
	}
}

// rawColumns is uniformColumns for raw words: rows of them per column.
// The Go loops draw a one-word column with firstWord, which seeds lane 0
// alone; uint64s4AVX handles one-word columns through its tail mask.
func (b *BatchXoshiro) rawColumns(r uint64, js []int, rows int, dst []uint64, vec bool) {
	v := b.columnValues(r, js)
	switch {
	case vec:
		uint64s4AVX(&v, len(js), rows, dst[:len(js)*rows])
	case rows == 1:
		for c := range js {
			dst[c] = firstWord(v[c])
		}
	default:
		for c := range js {
			s := seedColumn(v[c])
			drawRaw(&s, dst[c*rows:(c+1)*rows], false)
		}
	}
}

// firstWord is the first output of lane 0 seeded from checkpoint value v.
func firstWord(v uint64) uint64 {
	var s [4][4]uint64
	seedLane(&s, v, 0)
	return bits.RotateLeft64(s[0][0]+s[3][0], 23) + s[0][0]
}

// words returns the sampler's raw-word scratch resized to n words, on
// cache lines of its own.
func (s *Sampler) words(n int) []uint64 {
	if cap(s.buf) < n {
		s.buf = cacheline.Make[uint64](n)
	}
	return s.buf[:n]
}
