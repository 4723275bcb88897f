//go:build !purego

package kernels

import "sketchsp/internal/rng"

// useAVX512 selects the assembly updates (avx512_amd64.s) on the hosts
// where rng runs its AVX-512 backend.
var useAVX512 = rng.AVX512()

// axpyColsAVX is axpyCols on ZMM registers, over all of y: eight elements
// per step, each loaded and stored once per call; an opmask covers the
// last len(y) mod 8. Per column a VMULPD, then a VADDPD, rounding as the
// Go loop does.
//
//go:noescape
func axpyColsAVX(a, x, y []float64)

// signColsAVX is axpySignCols on ZMM registers: y in strips of 64 rows,
// eight registers, every column applied to a strip before the next.
//
//go:noescape
func signColsAVX(a []float64, words []uint64, y []float64)

// axpyRowsAVX is axpyRows on ZMM registers: the rows of the group and
// their entries walked in one call, column cols[e] of Âsub at
// ahat[cols[e]*stride:], d1 rows tall.
//
//go:noescape
func axpyRowsAVX(x []float64, off, cols []int, vals []float64, ahat []float64, stride, d1 int)

// signRowsAVX is axpySignRows on ZMM registers, as axpyRowsAVX walks the
// group.
//
//go:noescape
func signRowsAVX(words []uint64, off, cols []int, vals []float64, ahat []float64, stride, d1 int)

// scatterColsAVX is scatterCols on ZMM registers, with the layout and
// the bound block row in dec.
//
//go:noescape
func scatterColsAVX(a []float64, words []uint64, y []float64, dec *sjltDecode)

// scatterRowsAVX is scatterRows on ZMM registers, as axpyRowsAVX walks
// the group.
//
//go:noescape
func scatterRowsAVX(words []uint64, off, cols []int, vals []float64, ahat []float64, stride int, dec *sjltDecode)
