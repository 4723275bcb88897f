//go:build !amd64 || purego

package kernels

// Without the amd64 assembly the Go loops are the only backend.
const useAVX512 = false

func axpyAVX(float64, []float64, []float64)    { panic("kernels: no AVX-512 backend") }
func axpySignAVX(float64, []uint64, []float64) { panic("kernels: no AVX-512 backend") }
