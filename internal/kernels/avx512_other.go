//go:build !amd64 || purego

package kernels

// Without the amd64 assembly the Go loops are the only backend.
const useAVX512 = false

func axpyColsAVX(a, x, y []float64)                        { panic("kernels: no AVX-512 backend") }
func axpySignColsAVX(a []float64, w []uint64, y []float64) { panic("kernels: no AVX-512 backend") }
