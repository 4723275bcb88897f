//go:build !purego

#include "textflag.h"

// The AVX-512 backend of axpyCols and axpySignCols (loops.go): 1 to 4
// columns of S applied to one column y of Â in a single pass, eight
// elements per ZMM register. Only EVEX encodings, and a separate VMULPD
// and VADDPD, never a fused multiply-add: every element rounds exactly as
// in the Go loops, column after column.
//
// Register use in both routines: DI walks y, BX counts the elements of y
// still to do, K1 masks the lanes of y in this step (all eight but in the
// last step of a length that is not a multiple of 8), Z4 accumulates the
// step and Z0–Z3 hold a[0]–a[3] broadcast. CX and DX are scratch.

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

// STEPMASK sets K1 to the low BX lanes when fewer than eight remain.
#define STEPMASK(full) \
	CMPQ  BX, $8; \
	JAE   full; \
	MOVQ  $8, CX; \
	SUBQ  BX, CX; \
	MOVL  $0xff, DX; \
	SHRL  CX, DX; \
	KMOVB DX, K1; \
full:

// ACC adds za·x to the lanes of Z4 that K1 selects: a rounded product,
// then a rounded sum. Masked-off lanes of x are never read.
#define ACC(x, za) \
	VMULPD.Z x, za, K1, Z5; \
	VADDPD   Z4, Z5, Z4

// func axpyColsAVX(a, x, y []float64)
//
// Column c of x starts c·len(y) elements in: SI walks column 0 and R8 is
// the column stride in bytes (R10 three strides).
TEXT ·axpyColsAVX(SB), NOSPLIT, $0-72
	MOVQ y_len+56(FP), BX
	TESTQ BX, BX
	JZ   axpydone
	MOVQ a_base+0(FP), AX
	MOVQ a_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DI
	LEAQ (BX*8), R8
	LEAQ (R8)(R8*2), R10
	KXNORB K1, K1, K1
	VBROADCASTSD 0(AX), Z0
	CMPQ CX, $2
	JB   axpy1
	VBROADCASTSD 8(AX), Z1
	JE   axpy2
	VBROADCASTSD 16(AX), Z2
	CMPQ CX, $4
	JB   axpy3
	VBROADCASTSD 24(AX), Z3

axpy4:
	STEPMASK(axpy4full)
	VMOVUPD.Z (DI), K1, Z4
	ACC((SI), Z0)
	ACC((SI)(R8*1), Z1)
	ACC((SI)(R8*2), Z2)
	ACC((SI)(R10*1), Z3)
	VMOVUPD Z4, K1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, BX
	JA   axpy4
	JMP  axpyend

axpy3:
	STEPMASK(axpy3full)
	VMOVUPD.Z (DI), K1, Z4
	ACC((SI), Z0)
	ACC((SI)(R8*1), Z1)
	ACC((SI)(R8*2), Z2)
	VMOVUPD Z4, K1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, BX
	JA   axpy3
	JMP  axpyend

axpy2:
	STEPMASK(axpy2full)
	VMOVUPD.Z (DI), K1, Z4
	ACC((SI), Z0)
	ACC((SI)(R8*1), Z1)
	VMOVUPD Z4, K1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, BX
	JA   axpy2
	JMP  axpyend

axpy1:
	STEPMASK(axpy1full)
	VMOVUPD.Z (DI), K1, Z4
	ACC((SI), Z0)
	VMOVUPD Z4, K1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, BX
	JA   axpy1

axpyend:
	VZEROUPPER

axpydone:
	RET

// SIGN adds ±za to the lanes of Z4 that K1 selects: −za where the low
// byte of the word register w has the lane's bit set (in zn), else za.
#define SIGN(w, za, zn) \
	KMOVB     w, K2; \
	VBLENDMPD zn, za, K2, Z5; \
	VADDPD    Z4, Z5, Z4

// NEXTSIGN stores the step, moves to the next eight elements and returns
// when none are left, or loops to the next step of the word, or (after
// eight steps) to the next word.
#define NEXTSIGN(step, word) \
	VMOVUPD Z4, K1, (DI); \
	ADDQ    $64, DI; \
	SUBQ    $8, BX; \
	JBE     signend; \
	DECQ    AX; \
	JNZ     step; \
	JMP     word

// func axpySignColsAVX(a []float64, words []uint64, y []float64)
//
// Column c's sign words start c·⌈len(y)/64⌉ words in: SI walks column 0
// and R9 is the column stride in bytes (R10 three strides). A word signs
// 64 elements, eight steps; the words being consumed sit in R11, R12, R13
// and R8, shifted down a byte per step, and AX counts the steps left in
// them.
// Z8–Z11 hold −a[0]–−a[3].
TEXT ·axpySignColsAVX(SB), NOSPLIT, $0-72
	MOVQ y_len+56(FP), BX
	TESTQ BX, BX
	JZ   signdone
	MOVQ a_base+0(FP), AX
	MOVQ a_len+8(FP), CX
	MOVQ words_base+24(FP), SI
	MOVQ y_base+48(FP), DI
	LEAQ 63(BX), R9
	SHRQ $6, R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	KXNORB K1, K1, K1
	VBROADCASTSD signbit<>(SB), Z7
	VBROADCASTSD 0(AX), Z0
	VXORPD       Z0, Z7, Z8
	CMPQ CX, $2
	JB   sign1
	VBROADCASTSD 8(AX), Z1
	VXORPD       Z1, Z7, Z9
	JE   sign2
	VBROADCASTSD 16(AX), Z2
	VXORPD       Z2, Z7, Z10
	CMPQ CX, $4
	JB   sign3
	VBROADCASTSD 24(AX), Z3
	VXORPD       Z3, Z7, Z11

sign4:
	MOVQ (SI), R11
	MOVQ (SI)(R9*1), R12
	MOVQ (SI)(R9*2), R13
	MOVQ (SI)(R10*1), R8
	ADDQ $8, SI
	MOVQ $8, AX

sign4step:
	STEPMASK(sign4full)
	VMOVUPD.Z (DI), K1, Z4
	SIGN(R11, Z0, Z8)
	SIGN(R12, Z1, Z9)
	SIGN(R13, Z2, Z10)
	SIGN(R8, Z3, Z11)
	SHRQ $8, R11
	SHRQ $8, R12
	SHRQ $8, R13
	SHRQ $8, R8
	NEXTSIGN(sign4step, sign4)

sign3:
	MOVQ (SI), R11
	MOVQ (SI)(R9*1), R12
	MOVQ (SI)(R9*2), R13
	ADDQ $8, SI
	MOVQ $8, AX

sign3step:
	STEPMASK(sign3full)
	VMOVUPD.Z (DI), K1, Z4
	SIGN(R11, Z0, Z8)
	SIGN(R12, Z1, Z9)
	SIGN(R13, Z2, Z10)
	SHRQ $8, R11
	SHRQ $8, R12
	SHRQ $8, R13
	NEXTSIGN(sign3step, sign3)

sign2:
	MOVQ (SI), R11
	MOVQ (SI)(R9*1), R12
	ADDQ $8, SI
	MOVQ $8, AX

sign2step:
	STEPMASK(sign2full)
	VMOVUPD.Z (DI), K1, Z4
	SIGN(R11, Z0, Z8)
	SIGN(R12, Z1, Z9)
	SHRQ $8, R11
	SHRQ $8, R12
	NEXTSIGN(sign2step, sign2)

sign1:
	MOVQ (SI), R11
	ADDQ $8, SI
	MOVQ $8, AX

sign1step:
	STEPMASK(sign1full)
	VMOVUPD.Z (DI), K1, Z4
	SIGN(R11, Z0, Z8)
	SHRQ $8, R11
	NEXTSIGN(sign1step, sign1)

signend:
	VZEROUPPER

signdone:
	RET
