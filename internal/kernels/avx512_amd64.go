//go:build !purego

package kernels

import "sketchsp/internal/rng"

// useAVX512 selects the assembly axpyCols and axpySignCols
// (avx512_amd64.s) on the hosts where rng runs its AVX-512 backend.
var useAVX512 = rng.AVX512()

// axpyColsAVX is axpyCols on ZMM registers, over all of y: eight elements
// per step, each loaded and stored once per call; an opmask covers the
// last len(y) mod 8. Per column a VMULPD, then a VADDPD, rounding as the
// Go loop does.
//
//go:noescape
func axpyColsAVX(a, x, y []float64)

// axpySignColsAVX is axpySignCols on ZMM registers, over all of y: per
// column an opmask loaded from eight sign bits picks −a[c] or a[c].
//
//go:noescape
func axpySignColsAVX(a []float64, words []uint64, y []float64)
