//go:build !purego

#include "textflag.h"

// The AVX-512 backend of BatchXoshiro (xoshiro.go). The four xoshiro256++
// lanes live in Y0..Y3, one state word per register and one lane per
// quadword, so one pass of XOSHIRO advances all four lanes exactly as the
// Go reference advances its four sets of scalar registers. Every
// instruction is VEX or EVEX encoded (a legacy-SSE instruction here would
// cost an AVX-SSE transition on every call), and constants are broadcast
// from read-only data. The only floating-point steps are an exact
// conversion and an exact scale by 2⁻⁵³, so each sample equals Go's.

DATA uscale<>+0(SB)/8, $0x3ca0000000000000 // 2⁻⁵³
GLOBL uscale<>(SB), RODATA|NOPTR, $8

DATA golden<>+0(SB)/8, $0x9E3779B97F4A7C15 // splitmix64 increment
GLOBL golden<>(SB), RODATA|NOPTR, $8

DATA mixc1<>+0(SB)/8, $0xBF58476D1CE4E5B9
GLOBL mixc1<>(SB), RODATA|NOPTR, $8

DATA mixc2<>+0(SB)/8, $0x94D049BB133111EB
GLOBL mixc2<>(SB), RODATA|NOPTR, $8

// Lane k's first state word is splitmix64 output 4k+1, its checkpoint
// value plus (4k+1)·φ.
DATA firstinc<>+0(SB)/8, $0x9E3779B97F4A7C15  // 1·φ
DATA firstinc<>+8(SB)/8, $0x1715609F7C746C69  // 5·φ
DATA firstinc<>+16(SB)/8, $0x8FF34785799E5CBD // 9·φ
DATA firstinc<>+24(SB)/8, $0x08D12E6B76C84D11 // 13·φ
GLOBL firstinc<>(SB), RODATA|NOPTR, $32

// XOSHIRO writes the next output of every lane to R and advances the
// state in Y0..Y3; T is clobbered.
#define XOSHIRO(R, T) \
	VPADDQ  Y3, Y0, R; \
	VPROLQ  $23, R, R; \
	VPADDQ  Y0, R, R; \
	VPSLLQ  $17, Y1, T; \
	VPXOR   Y0, Y2, Y2; \
	VPXOR   Y1, Y3, Y3; \
	VPXOR   Y2, Y1, Y1; \
	VPXOR   Y3, Y0, Y0; \
	VPXOR   T, Y2, Y2; \
	VPROLQ  $45, Y3, Y3

// UNIFORM11 turns raw words R into (-1, 1) samples: an arithmetic shift
// leaves a 54-bit signed integer, which VCVTQQ2PD converts exactly, and
// the scale by 2⁻⁵³ in Y15 is exact too.
#define UNIFORM11(R) \
	VPSRAQ    $10, R, R; \
	VCVTQQ2PD R, R; \
	VMULPD    Y15, R, R

#define LOADSTATE(P) \
	VMOVDQU 0(P), Y0; \
	VMOVDQU 32(P), Y1; \
	VMOVDQU 64(P), Y2; \
	VMOVDQU 96(P), Y3

#define STORESTATE(P) \
	VMOVDQU Y0, 0(P); \
	VMOVDQU Y1, 32(P); \
	VMOVDQU Y2, 64(P); \
	VMOVDQU Y3, 96(P)

// SPLITMIX finishes splitmix64 outputs in place: the mix64 finaliser, with
// its multipliers in Y5 and Y6; T is clobbered.
#define SPLITMIX(R, T) \
	VPSRLQ  $30, R, T; \
	VPXOR   T, R, R; \
	VPMULLQ Y5, R, R; \
	VPSRLQ  $27, R, T; \
	VPXOR   T, R, R; \
	VPMULLQ Y6, R, R; \
	VPSRLQ  $31, R, T; \
	VPXOR   T, R, R

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func seedLanesAVX(s *[4][4]uint64, v uint64)
TEXT ·seedLanesAVX(SB), NOSPLIT, $0-16
	MOVQ         s+0(FP), AX
	VPBROADCASTQ golden<>(SB), Y4
	VPBROADCASTQ mixc1<>(SB), Y5
	VPBROADCASTQ mixc2<>(SB), Y6
	VPBROADCASTQ v+8(FP), Y0
	VPADDQ       firstinc<>(SB), Y0, Y0 // word 0 of lane k: v + (4k+1)·φ
	VPADDQ       Y4, Y0, Y1             // word w: w more increments
	VPADDQ       Y4, Y1, Y2
	VPADDQ       Y4, Y2, Y3
	SPLITMIX(Y0, Y7)
	SPLITMIX(Y1, Y8)
	SPLITMIX(Y2, Y9)
	SPLITMIX(Y3, Y10)

	// A lane whose four words are all zero gets word 0 = φ.
	VPOR       Y0, Y1, Y7
	VPOR       Y2, Y3, Y8
	VPOR       Y7, Y8, Y7
	VPTESTNMQ  Y7, Y7, K1
	VMOVDQA64  Y4, K1, Y0
	STORESTATE(AX)
	VZEROUPPER
	RET

// func uint64sAVX(s *[4][4]uint64, dst []uint64)
TEXT ·uint64sAVX(SB), NOSPLIT, $0-32
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	SHRQ $2, CX
	JZ   rawnone
	MOVQ s+0(FP), AX
	LOADSTATE(AX)

rawloop:
	XOSHIRO(Y4, Y5)
	VMOVDQU Y4, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rawloop

	STORESTATE(AX)
	VZEROUPPER

rawnone:
	RET

// func fillUniform11AVX(s *[4][4]uint64, dst []float64)
TEXT ·fillUniform11AVX(SB), NOSPLIT, $0-32
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	SHRQ $2, CX
	JZ   fillnone
	MOVQ s+0(FP), AX
	LOADSTATE(AX)
	VBROADCASTSD uscale<>(SB), Y15

fillloop:
	XOSHIRO(Y4, Y5)
	UNIFORM11(Y4)
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     fillloop

	STORESTATE(AX)
	VZEROUPPER

fillnone:
	RET
