package rng

import (
	"math/bits"

	"sketchsp/internal/cacheline"
)

// MaxColumns is the most columns one dense batched draw serves. The
// kernels draw the dense columns of S they need in groups of up to
// MaxColumns: the nonzeros of one A column (Algorithm 3) or consecutive
// non-empty sparse rows (Algorithm 4). On BatchXoshiro a group's
// checkpoints are seeded in one pass, which is where the per-column cost
// of a short column goes. The raw draws of the ±1 and sparse kinds take
// any number of columns.
const MaxColumns = 4

// ChunkWords bounds the raw-word scratch of one slab-wide draw, so that
// it stays in L1 beside the columns of Â it is applied to.
const ChunkWords = 2048

// ChunkColumns is how many columns of w raw words the kernels take in one
// slab-wide RawColumns or SJLTColumns draw: as many as fit in ChunkWords,
// at least 8 and at most 256.
func ChunkColumns(w int) int {
	return min(max(ChunkWords/max(w, 1), 8), 256)
}

// The batched draws below are the only way the kernels read S. Each one
// is, bit for bit, SetState(r, js[c]) followed by the single-column draw,
// once for each c in order; afterwards the generator's position is
// unspecified, so the next draw must start with SetState or another
// batched draw.
//
// On BatchXoshiro a batched draw seeds all its checkpoints in one pass
// and then draws each column. Where the CPU has AVX-512, one call does
// both, and the lane states never leave the registers: fillUniform4AVX
// for up to MaxColumns uniform columns, two per ZMM register, and
// rawColumnsAVX for any number of raw-word columns, which computes the
// checkpoint values in the registers too and seeds only the state words
// the draw reads. In the Go loops a batch of one-word columns (±1 with at
// most 64 rows, CountSketch) computes only the first output of lane 0 of
// each, with firstWord. Every other source and distribution loops over
// the columns.

// FillColumns writes column js[c] of block row r to dst[c*n:(c+1)*n] for
// each c, where n = len(dst)/len(js); len(js) must be in [1, MaxColumns].
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

// RawColumns is RawWords for a batch of any size: it writes the raw words
// covering nbits bits of each column js[c] of block row r to
// dst[c*w:(c+1)*w], w = (nbits+63)/64.
func (s *Sampler) RawColumns(r uint64, js []int, nbits int, dst []uint64) {
	s.rawColumns(r, js, (nbits+63)/64, dst)
}

// SJLTColumns writes the raw words of the s-sparse columns js of the
// sparse family's S, sp per column, drawn at their reserved checkpoints:
// column js[c]'s to dst[c*sp:(c+1)*sp], word b deciding nonzero b through
// SJLTLayout.Place. This is FillSJLTColumn's draw for a batch of any
// size, without the placement, which the kernels do as they scatter.
func (s *Sampler) SJLTColumns(js []int, sp int, dst []uint64) {
	s.rawColumns(sjltBase, js, sp, dst)
}

// rawColumns fills dst[c*w:(c+1)*w] with the first w raw words drawn at
// checkpoint (r, js[c]).
func (s *Sampler) rawColumns(r uint64, js []int, w int, dst []uint64) {
	dst = dst[:len(js)*w]
	if s.bx != nil {
		s.bx.rawColumns(r, js, w, dst, useAVX512)
		return
	}
	for c, j := range js {
		s.src.SetState(r, uint64(j))
		s.src.Uint64s(dst[c*w : (c+1)*w])
	}
}

// rowHalf returns rowMix(seed, r), cached across calls with the same r
// as SetState caches it.
func (b *BatchXoshiro) rowHalf(r uint64) uint64 {
	if r != b.r {
		b.r, b.rmix = r, rowMix(b.seed, r)
	}
	return b.rmix
}

// columnValues returns the checkpoint values of columns js of block row r
// (zero past len(js)).
func (b *BatchXoshiro) columnValues(r uint64, js []int) (v [MaxColumns]uint64) {
	rmix := b.rowHalf(r)
	for c, j := range js {
		v[c] = rmix ^ colMix(uint64(j))
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

// rawColumns is uniformColumns for raw words, w of them per column, and
// any number of columns. The Go loops draw a one-word column with
// firstWord, which seeds lane 0 alone.
func (b *BatchXoshiro) rawColumns(r uint64, js []int, w int, dst []uint64, vec bool) {
	if len(js) == 0 || w == 0 {
		return
	}
	rmix := b.rowHalf(r)
	switch {
	case vec:
		rawColumnsAVX(rmix, js, w, dst[:len(js)*w])
	case w == 1:
		for c, j := range js {
			dst[c] = firstWord(rmix ^ colMix(uint64(j)))
		}
	default:
		for c, j := range js {
			s := seedColumn(rmix ^ colMix(uint64(j)))
			drawRaw(&s, dst[c*w:(c+1)*w], false)
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
