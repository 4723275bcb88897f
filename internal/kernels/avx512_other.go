//go:build !amd64 || purego

package kernels

// Without the amd64 assembly the Go loops are the only backend.
const useAVX512 = false

func axpyColsAVX(a, x, y []float64)                    { panic("kernels: no AVX-512 backend") }
func signColsAVX(a []float64, w []uint64, y []float64) { panic("kernels: no AVX-512 backend") }
func scatterColsAVX([]float64, []uint64, []float64, *sjltDecode) {
	panic("kernels: no AVX-512 backend")
}

func axpyRowsAVX([]float64, []int, []int, []float64, []float64, int, int) {
	panic("kernels: no AVX-512 backend")
}

func signRowsAVX([]uint64, []int, []int, []float64, []float64, int, int) {
	panic("kernels: no AVX-512 backend")
}

func scatterRowsAVX([]uint64, []int, []int, []float64, []float64, int, *sjltDecode) {
	panic("kernels: no AVX-512 backend")
}
