//go:build !purego

#include "textflag.h"

// The AVX-512 backend of BatchXoshiro (xoshiro.go). The four xoshiro256++
// lanes live in Y0..Y3, one state word per register and one lane per
// quadword, so one pass of XOSHIRO advances all four lanes exactly as the
// Go reference advances its four sets of scalar registers; the batched
// draws further down hold two columns' lanes in each ZMM register. Every
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

// tailmask[t] selects the first t words of a group of four.
DATA tailmask<>+0(SB)/4, $0x07030100
GLOBL tailmask<>(SB), RODATA|NOPTR, $4

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

// ZSPLITMIX is SPLITMIX on a ZMM register, with the multipliers in Z5
// and Z6.
#define ZSPLITMIX(R, T) \
	VPSRLQ  $30, R, T; \
	VPXORQ  T, R, R; \
	VPMULLQ Z5, R, R; \
	VPSRLQ  $27, R, T; \
	VPXORQ  T, R, R; \
	VPMULLQ Z6, R, R; \
	VPSRLQ  $31, R, T; \
	VPXORQ  T, R, R

// The batched draws run two columns per ZMM register: state word w of
// both columns' four lanes is in Zw (w = 0..3), the first column in the
// low four quadwords and the second in the high four. One ZXOSHIRO step
// then yields the next four words of both columns.

// DRAWSETUP loads the constants of a batched draw whose arguments
// (v, n, rows, dst) are in BX, CX, DX and SI. BX walks v and SI the first
// column of the current pair in dst; CX counts the columns left; R10 is
// the number of whole steps of four words per column, R11 the column
// stride in bytes and R12 the opmask of the words of the last, partial
// step.
#define DRAWSETUP \
	MOVQ            $0xF0, AX; \
	KMOVB           AX, K3; \
	VPBROADCASTQ    golden<>(SB), Z4; \
	VPBROADCASTQ    mixc1<>(SB), Z5; \
	VPBROADCASTQ    mixc2<>(SB), Z6; \
	VBROADCASTI64X4 firstinc<>(SB), Z12; \
	MOVQ            DX, R10; \
	SHRQ            $2, R10; \
	MOVQ            DX, R11; \
	SHLQ            $3, R11; \
	MOVQ            DX, AX; \
	ANDQ            $3, AX; \
	LEAQ            tailmask<>(SB), R13; \
	MOVBQZX         (R13)(AX*1), R12

// PAIRSTART seeds the pair of columns at v[0:2] (BX) into Z0..Z3 and
// then runs PAIRPTRS. Z7..Z10, AX, R13 and K1 are clobbered.
#define PAIRSTART \
	VPBROADCASTQ 0(BX), Z0; \
	VPBROADCASTQ 8(BX), K3, Z0; \
	VPADDQ       Z12, Z0, Z0; \
	VPADDQ       Z4, Z0, Z1; \
	VPADDQ       Z4, Z1, Z2; \
	VPADDQ       Z4, Z2, Z3; \
	ZSPLITMIX(Z0, Z7); \
	ZSPLITMIX(Z1, Z8); \
	ZSPLITMIX(Z2, Z9); \
	ZSPLITMIX(Z3, Z10); \
	VPORQ        Z0, Z1, Z7; \
	VPORQ        Z2, Z3, Z8; \
	VPORQ        Z7, Z8, Z7; \
	VPTESTNMQ    Z7, Z7, K1; \
	VMOVDQA64    Z4, K1, Z0; \
	PAIRPTRS

// PAIRPTRS points DI and R8 at the pair's columns in dst, loads the step
// count into R9 and sets the opmasks: K5 stores a whole step of the
// second column, K6 and K7 the partial step of the first and second.
// When only one column is left, the second one's masks are empty. AX and
// R13 are clobbered.
#define PAIRPTRS \
	MOVQ         SI, DI; \
	LEAQ         (SI)(R11*1), R8; \
	MOVQ         R10, R9; \
	XORL         AX, AX; \
	MOVQ         $0xF, R13; \
	CMPQ         CX, $1; \
	CMOVQEQ      AX, R13; \
	KMOVB        R13, K5; \
	ANDQ         R12, R13; \
	KMOVB        R13, K7; \
	KMOVB        R12, K6

// ZXOSHIRO writes the next output of all eight lanes of Z0..Z3 to R and
// advances them; T is clobbered.
#define ZXOSHIRO(R, T) \
	VPADDQ Z3, Z0, R; \
	VPROLQ $23, R, R; \
	VPADDQ Z0, R, R; \
	VPSLLQ $17, Z1, T; \
	VPXORQ Z0, Z2, Z2; \
	VPXORQ Z1, Z3, Z3; \
	VPXORQ Z2, Z1, Z1; \
	VPXORQ Z3, Z0, Z0; \
	VPXORQ T, Z2, Z2; \
	VPROLQ $45, Z3, Z3

// ZUNIFORM11 is UNIFORM11 on a ZMM register, with the scale in Z15.
#define ZUNIFORM11(R) \
	VPSRAQ    $10, R, R; \
	VCVTQQ2PD R, R; \
	VMULPD    Z15, R, R

// STORESTEP writes a whole step, R's low half to the first column (DI)
// and its high half to the second (R8), and advances both.
#define STORESTEP(R) \
	VEXTRACTI64X4 $0, R, (DI); \
	VEXTRACTI64X4 $1, R, K5, (R8); \
	ADDQ          $32, DI; \
	ADDQ          $32, R8

// STORETAIL writes the words of the partial last step.
#define STORETAIL(R) \
	VEXTRACTI64X4 $0, R, K6, (DI); \
	VEXTRACTI64X4 $1, R, K7, (R8)

// PAIREND moves BX and SI on to the next pair of columns and counts the
// two columns off CX.
#define PAIREND \
	ADDQ $16, BX; \
	LEAQ (SI)(R11*2), SI; \
	SUBQ $2, CX

// func fillUniform4AVX(v *[4]uint64, n, rows int, dst []float64)
//
// Writes rows uniform (-1, 1) samples of each of the n columns seeded
// from v[c] to dst[c*rows:(c+1)*rows]: seedLane for all four lanes, then
// fillUniform11's draw, the last partial group of four included.
TEXT ·fillUniform4AVX(SB), NOSPLIT, $0-48
	MOVQ v+0(FP), BX
	MOVQ n+8(FP), CX
	MOVQ rows+16(FP), DX
	MOVQ dst_base+24(FP), SI
	DRAWSETUP
	VBROADCASTSD uscale<>(SB), Z15

upair:
	PAIRSTART
	TESTQ R9, R9
	JZ    utail

ustep:
	ZXOSHIRO(Z14, Z13)
	ZUNIFORM11(Z14)
	STORESTEP(Z14)
	DECQ R9
	JNZ  ustep

utail:
	TESTQ R12, R12
	JZ    unext
	ZXOSHIRO(Z14, Z13)
	ZUNIFORM11(Z14)
	STORETAIL(Z14)

unext:
	PAIREND
	JG upair
	VZEROUPPER
	RET


// The slab-wide raw draw. Its checkpoint values are rowMix ^ colMix(j),
// colMix(j) = mix64(j·mixc1 + 2), computed in the registers from the
// column indices; the row half comes in as an argument.

DATA two<>+0(SB)/8, $2
GLOBL two<>(SB), RODATA|NOPTR, $8

DATA phi3<>+0(SB)/8, $0xDAA66D2C7DDF743F // 3·φ
GLOBL phi3<>(SB), RODATA|NOPTR, $8

// lowmask[n] selects the low n of eight quadwords.
DATA lowmask<>+0(SB)/8, $0x7F3F1F0F07030100
DATA lowmask<>+8(SB)/1, $0xFF
GLOBL lowmask<>(SB), RODATA|NOPTR, $9

// A one-step draw of W = 1, 2 or 4 words per column runs 8/W columns per
// ZMM register, W lanes each: leanperm[W] sends column L/W to lane L and
// leaninc[W] holds lane L's first splitmix64 increment, (4(L mod W)+1)·φ.
DATA leanperm<>+0(SB)/8, $0x0000000000000000
DATA leanperm<>+8(SB)/8, $0x0000000000000001
DATA leanperm<>+16(SB)/8, $0x0000000000000002
DATA leanperm<>+24(SB)/8, $0x0000000000000003
DATA leanperm<>+32(SB)/8, $0x0000000000000004
DATA leanperm<>+40(SB)/8, $0x0000000000000005
DATA leanperm<>+48(SB)/8, $0x0000000000000006
DATA leanperm<>+56(SB)/8, $0x0000000000000007
DATA leanperm<>+64(SB)/8, $0x0000000000000000
DATA leanperm<>+72(SB)/8, $0x0000000000000000
DATA leanperm<>+80(SB)/8, $0x0000000000000001
DATA leanperm<>+88(SB)/8, $0x0000000000000001
DATA leanperm<>+96(SB)/8, $0x0000000000000002
DATA leanperm<>+104(SB)/8, $0x0000000000000002
DATA leanperm<>+112(SB)/8, $0x0000000000000003
DATA leanperm<>+120(SB)/8, $0x0000000000000003
DATA leanperm<>+128(SB)/8, $0x0000000000000000
DATA leanperm<>+136(SB)/8, $0x0000000000000000
DATA leanperm<>+144(SB)/8, $0x0000000000000000
DATA leanperm<>+152(SB)/8, $0x0000000000000000
DATA leanperm<>+160(SB)/8, $0x0000000000000001
DATA leanperm<>+168(SB)/8, $0x0000000000000001
DATA leanperm<>+176(SB)/8, $0x0000000000000001
DATA leanperm<>+184(SB)/8, $0x0000000000000001
GLOBL leanperm<>(SB), RODATA|NOPTR, $192

DATA leaninc<>+0(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+8(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+16(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+24(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+32(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+40(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+48(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+56(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+64(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+72(SB)/8, $0x1715609F7C746C69
DATA leaninc<>+80(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+88(SB)/8, $0x1715609F7C746C69
DATA leaninc<>+96(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+104(SB)/8, $0x1715609F7C746C69
DATA leaninc<>+112(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+120(SB)/8, $0x1715609F7C746C69
DATA leaninc<>+128(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+136(SB)/8, $0x1715609F7C746C69
DATA leaninc<>+144(SB)/8, $0x8FF34785799E5CBD
DATA leaninc<>+152(SB)/8, $0x08D12E6B76C84D11
DATA leaninc<>+160(SB)/8, $0x9E3779B97F4A7C15
DATA leaninc<>+168(SB)/8, $0x1715609F7C746C69
DATA leaninc<>+176(SB)/8, $0x8FF34785799E5CBD
DATA leaninc<>+184(SB)/8, $0x08D12E6B76C84D11
GLOBL leaninc<>(SB), RODATA|NOPTR, $192

// COLMIX turns the column indices in R into checkpoint values: colMix,
// then the row half in Z20 XORed in. Z5, Z6 hold the mix64 multipliers,
// Z21 the constant 2; T is clobbered.
#define COLMIX(R, T) \
	VPMULLQ Z5, R, R; \
	VPADDQ  Z21, R, R; \
	ZSPLITMIX(R, T); \
	VPXORQ  Z20, R, R

// WIDELANE draws xoshiro lane k of eight columns, one per quadword, from
// their checkpoint values in Z7, with inc = (4k+1)·φ: its first word into
// o0 and, when w > 4 (DX), its second into o1. It seeds s0 and s3, and s1
// only for the second word. Z9..Z14 are clobbered; skip names the label.
#define WIDELANE(inc, o0, o1, skip) \
	VPADDQ  inc, Z7, Z9; \
	VPADDQ  Z24, Z9, Z10; \
	VPADDQ  Z4, Z9, Z11; \
	ZSPLITMIX(Z9, Z12); \
	ZSPLITMIX(Z10, Z13); \
	VPADDQ  Z10, Z9, o0; \
	VPROLQ  $23, o0, o0; \
	VPADDQ  Z9, o0, o0; \
	CMPQ    DX, $4; \
	JLE     skip; \
	ZSPLITMIX(Z11, Z14); \
	VPXORQ  Z11, Z10, Z10; \
	VPXORQ  Z10, Z9, Z9; \
	VPROLQ  $45, Z10, Z10; \
	VPADDQ  Z10, Z9, o1; \
	VPROLQ  $23, o1, o1; \
	VPADDQ  Z9, o1, o1; \
skip:

// TRANSPOSE8 turns the word-major rows Z0..Z3, Z16..Z19 (word b of eight
// columns) into columns Z8..Z15 (the eight words of one column): pairs
// of quadwords, then 128-bit lanes, then 256-bit halves.
#define TRANSPOSE8 \
	VPUNPCKLQDQ Z1, Z0, Z8; \
	VPUNPCKHQDQ Z1, Z0, Z9; \
	VPUNPCKLQDQ Z3, Z2, Z10; \
	VPUNPCKHQDQ Z3, Z2, Z11; \
	VPUNPCKLQDQ Z17, Z16, Z12; \
	VPUNPCKHQDQ Z17, Z16, Z13; \
	VPUNPCKLQDQ Z19, Z18, Z14; \
	VPUNPCKHQDQ Z19, Z18, Z15; \
	VSHUFI64X2  $0x88, Z10, Z8, Z0; \
	VSHUFI64X2  $0xDD, Z10, Z8, Z1; \
	VSHUFI64X2  $0x88, Z11, Z9, Z2; \
	VSHUFI64X2  $0xDD, Z11, Z9, Z3; \
	VSHUFI64X2  $0x88, Z14, Z12, Z16; \
	VSHUFI64X2  $0xDD, Z14, Z12, Z17; \
	VSHUFI64X2  $0x88, Z15, Z13, Z18; \
	VSHUFI64X2  $0xDD, Z15, Z13, Z19; \
	VSHUFI64X2  $0x88, Z16, Z0, Z8; \
	VSHUFI64X2  $0xDD, Z16, Z0, Z12; \
	VSHUFI64X2  $0x88, Z18, Z2, Z9; \
	VSHUFI64X2  $0xDD, Z18, Z2, Z13; \
	VSHUFI64X2  $0x88, Z17, Z1, Z10; \
	VSHUFI64X2  $0xDD, Z17, Z1, Z14; \
	VSHUFI64X2  $0x88, Z19, Z3, Z11; \
	VSHUFI64X2  $0xDD, Z19, Z3, Z15

// func rawColumnsAVX(rmix uint64, js []int, w int, dst []uint64)
//
// Writes w raw words drawn at checkpoint value rmix ^ colMix(js[c]) to
// dst[c*w:(c+1)*w] for every c: seedLane, then drawRaw, bit for bit, but
// seeding only the state words the draw reads. A lane's first output
// reads s0 and s3 alone, its second also s1, never s2. The all-zero fix
// of seedLane is left out: a lane's four words are mix64 of four
// distinct values and mix64 is a bijection that maps only 0 to 0, so at
// most one of them is zero and the fix never fires (TestLeanSeeding).
TEXT ·rawColumnsAVX(SB), NOSPLIT, $0-64
	MOVQ         js_len+16(FP), CX
	TESTQ        CX, CX
	JZ           rcnone
	MOVQ         js_base+8(FP), BX
	MOVQ         w+32(FP), DX
	MOVQ         dst_base+40(FP), SI
	VPBROADCASTQ rmix+0(FP), Z20
	VPBROADCASTQ two<>(SB), Z21
	VPBROADCASTQ phi3<>(SB), Z24
	CMPQ         DX, $8
	JA           rcgeneral
	CMPQ         DX, $4
	JA           rcwide
	JEQ          rclean
	CMPQ         DX, $3
	JEQ          rcwide

rclean:
	// R11 counts the columns left, R8 = 8/W columns per register and CX
	// = log2 W; Z22 and Z23 hold W's rows of leanperm and leaninc.
	VPBROADCASTQ mixc1<>(SB), Z5
	VPBROADCASTQ mixc2<>(SB), Z6
	MOVQ         CX, R11
	BSFQ         DX, CX
	MOVQ         CX, AX
	SHLQ         $6, AX
	LEAQ         leanperm<>(SB), R13
	VMOVDQU64    (R13)(AX*1), Z22
	LEAQ         leaninc<>(SB), R13
	VMOVDQU64    (R13)(AX*1), Z23
	MOVQ         $8, R8
	SHRQ         CX, R8
	LEAQ         lowmask<>(SB), R13

rcleanloop:
	// K1 loads this register's columns, K2 stores their words.
	MOVQ        R11, AX
	CMPQ        AX, R8
	CMOVQGT     R8, AX
	MOVBQZX     (R13)(AX*1), R9
	KMOVB       R9, K1
	SHLQ        CX, AX
	MOVBQZX     (R13)(AX*1), R9
	KMOVB       R9, K2
	VMOVDQU64.Z (BX), K1, Z7
	VPERMQ      Z7, Z22, Z7
	COLMIX(Z7, Z8)
	VPADDQ      Z23, Z7, Z9         // s0's splitmix64 input
	VPADDQ      Z24, Z9, Z10        // s3's, three increments on
	ZSPLITMIX(Z9, Z11)
	ZSPLITMIX(Z10, Z12)
	VPADDQ      Z10, Z9, Z13
	VPROLQ      $23, Z13, Z13
	VPADDQ      Z9, Z13, Z13
	VMOVDQU64   Z13, K2, (SI)
	LEAQ        (BX)(R8*8), BX
	ADDQ        $64, SI
	SUBQ        R8, R11
	JG          rcleanloop
	VZEROUPPER
	RET

rcwide:
	// w = 3 or 5..8: eight columns per register, one per lane, drawn
	// lane by lane of the four xoshiro lanes; the words then come out
	// word-major and an 8×8 transpose turns them into columns.
	VPBROADCASTQ golden<>(SB), Z4
	VPBROADCASTQ mixc1<>(SB), Z5
	VPBROADCASTQ mixc2<>(SB), Z6
	VPBROADCASTQ firstinc<>+0(SB), Z25
	VPBROADCASTQ firstinc<>+8(SB), Z26
	VPBROADCASTQ firstinc<>+16(SB), Z27
	VPBROADCASTQ firstinc<>+24(SB), Z28
	MOVQ         CX, R11
	LEAQ         lowmask<>(SB), R13
	MOVBQZX      (R13)(DX*1), AX
	KMOVB        AX, K2
	LEAQ         0(DX*8), R12

rcwideloop:
	MOVQ        R11, AX
	CMPQ        AX, $8
	JLE         rcwiden
	MOVQ        $8, AX

rcwiden:
	MOVBQZX     (R13)(AX*1), R9
	KMOVB       R9, K1
	VMOVDQU64.Z (BX), K1, Z7
	COLMIX(Z7, Z8)
	WIDELANE(Z25, Z0, Z16, rcwide0)
	WIDELANE(Z26, Z1, Z17, rcwide1)
	WIDELANE(Z27, Z2, Z18, rcwide2)
	WIDELANE(Z28, Z3, Z19, rcwide3)
	TRANSPOSE8

	// Column j is in Z(8+j); AX columns are stored, w words each.
	MOVQ      SI, R9
	VMOVDQU64 Z8, K2, (R9)
	CMPQ      AX, $2
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z9, K2, (R9)
	CMPQ      AX, $3
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z10, K2, (R9)
	CMPQ      AX, $4
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z11, K2, (R9)
	CMPQ      AX, $5
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z12, K2, (R9)
	CMPQ      AX, $6
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z13, K2, (R9)
	CMPQ      AX, $7
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z14, K2, (R9)
	CMPQ      AX, $8
	JB        rcwidenext
	ADDQ      R12, R9
	VMOVDQU64 Z15, K2, (R9)

rcwidenext:
	ADDQ $64, BX
	LEAQ (SI)(R12*8), SI
	SUBQ $8, R11
	JG   rcwideloop
	VZEROUPPER
	RET

rcgeneral:
	// Two columns per register, as in fillUniform4AVX, with js in BX.
	DRAWSETUP

rcpair:
	MOVQ         0(BX), AX
	MOVQ         AX, R13
	CMPQ         CX, $2
	JB           rcone
	MOVQ         8(BX), R13

rcone:
	VPBROADCASTQ AX, Z7
	VPBROADCASTQ R13, K3, Z7
	COLMIX(Z7, Z8)
	VPADDQ       Z12, Z7, Z0
	VPADDQ       Z4, Z0, Z1
	VPADDQ       Z4, Z1, Z2
	VPADDQ       Z4, Z2, Z3
	ZSPLITMIX(Z0, Z7)
	ZSPLITMIX(Z3, Z8)
	CMPQ         DX, $4
	JLE          rcseeded
	ZSPLITMIX(Z1, Z9)
	CMPQ         DX, $8
	JLE          rcseeded
	ZSPLITMIX(Z2, Z10)

rcseeded:
	PAIRPTRS
	TESTQ R9, R9
	JZ    rctail

rcstep:
	ZXOSHIRO(Z14, Z13)
	STORESTEP(Z14)
	DECQ R9
	JNZ  rcstep

rctail:
	TESTQ R12, R12
	JZ    rcnext
	ZXOSHIRO(Z14, Z13)
	STORETAIL(Z14)

rcnext:
	PAIREND
	JG rcpair
	VZEROUPPER

rcnone:
	RET
