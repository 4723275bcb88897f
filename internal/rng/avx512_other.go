//go:build !amd64 || purego

package rng

// Without the amd64 assembly (other GOARCH, or the purego build tag) the Go
// reference code is the only backend.
const useAVX512 = false

// AVX512 reports whether this process runs the AVX-512 backend rather than
// the Go reference code.
func AVX512() bool { return false }

// Backend names the backend this process runs, for test and benchmark
// logs; this build reads no CPUID bits.
func Backend() string { return "Go loops (purego build tag or a GOARCH without the assembly)" }

func seedLanesAVX(*[4][4]uint64, uint64)        { panic("rng: no AVX-512 backend") }
func uint64sAVX(*[4][4]uint64, []uint64)        { panic("rng: no AVX-512 backend") }
func fillUniform11AVX(*[4][4]uint64, []float64) { panic("rng: no AVX-512 backend") }

func fillUniform4AVX(*[MaxColumns]uint64, int, int, []float64) { panic("rng: no AVX-512 backend") }
func rawColumnsAVX(uint64, []int, int, []uint64)               { panic("rng: no AVX-512 backend") }
