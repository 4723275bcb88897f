//go:build !purego

package rng

// useAVX512 selects the assembly backend (avx512_amd64.s). It needs
// AVX512F (VPROLQ, VPSRAQ on quadwords, opmasks), AVX512DQ (VCVTQQ2PD,
// VPMULLQ, KMOVB), AVX512VL (their YMM forms) and AVX2 (the VEX integer
// forms), and the OS must save the opmask and ZMM state (XCR0 bits 5-7
// besides the SSE and AVX bits).
var useAVX512 = detectAVX512()

// AVX512 reports whether this process runs the AVX-512 backend rather than
// the Go reference code.
func AVX512() bool { return useAVX512 }

func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	const avx2, f, dq, vl = 1 << 5, 1 << 16, 1 << 17, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx2|f|dq|vl) == avx2|f|dq|vl
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// seedLanesAVX is seedLane for all four lanes at once: s[w][k] is
// splitmix64 output 4k+w+1 of the sequence started at v, and a lane left
// all zero gets s[0][k] = φ.
//
//go:noescape
func seedLanesAVX(s *[4][4]uint64, v uint64)

// uint64sAVX is uint64sGo on AVX-512: it fills the whole groups of four of
// dst with raw words and advances s.
//
//go:noescape
func uint64sAVX(s *[4][4]uint64, dst []uint64)

// fillUniform11AVX is fillUniform11Go on AVX-512: it fills the whole groups
// of four of dst and advances s.
//
//go:noescape
func fillUniform11AVX(s *[4][4]uint64, dst []float64)

// fillUniform4AVX seeds all four lanes of n column states from checkpoint
// values v[c] and draws rows uniform (-1, 1) samples from each into
// dst[c*rows:(c+1)*rows], two columns per ZMM register: seedLane, then
// drawUniform11, for each column.
//
//go:noescape
func fillUniform4AVX(v *[MaxColumns]uint64, n, rows int, dst []float64)

// uint64s4AVX is fillUniform4AVX for raw words: seedLane, then drawRaw.
//
//go:noescape
func uint64s4AVX(v *[MaxColumns]uint64, n, rows int, dst []uint64)
