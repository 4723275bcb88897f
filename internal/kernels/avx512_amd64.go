//go:build !purego

package kernels

import "sketchsp/internal/rng"

// useAVX512 selects the assembly axpy and axpySign (avx512_amd64.s) on the
// hosts where rng runs its AVX-512 backend.
var useAVX512 = rng.AVX512()

// axpyAVX is axpy's Go loop on YMM registers, over the whole groups of four
// of y: a VMULPD, then a VADDPD, rounding as the Go loop does.
//
//go:noescape
func axpyAVX(a float64, x, y []float64)

// axpySignAVX is axpySign's Go loop over the whole groups of four of y: an
// opmask loaded from four sign bits picks −a or a per element.
//
//go:noescape
func axpySignAVX(a float64, words []uint64, y []float64)
