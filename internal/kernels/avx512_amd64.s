//go:build !purego

#include "textflag.h"

// The AVX-512 backend of the kernels' updates (loops.go): columns of S
// applied to columns of Â eight elements per ZMM register, with no Go
// call per column or per entry. Only EVEX encodings, and a separate
// VMULPD and VADDPD, never a fused multiply-add: every element rounds
// exactly as in the Go loops, and receives its adds in the same order,
// column after column.
//
// Register use in axpyColsAVX: DI walks y, BX counts the elements of y
// still to do, K1 masks the lanes of y in this step (all eight but in the
// last step of a length that is not a multiple of 8), Z4 accumulates the
// step and Z0–Z3 hold a[0]–a[3] broadcast. CX and DX are scratch.

#include "go_asm.h"

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

DATA low32<>+0(SB)/8, $0x00000000FFFFFFFF
GLOBL low32<>(SB), RODATA|NOPTR, $8

// lowmask[n] selects the low n of eight lanes.
DATA lowmask<>+0(SB)/8, $0x7F3F1F0F07030100
DATA lowmask<>+8(SB)/1, $0xFF
GLOBL lowmask<>(SB), RODATA|NOPTR, $9

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

// The row-group routines walk a group of slab rows: R8 walks off and CX
// counts the rows left; AX and BX are the entry range of the current
// row; the entry's column of Â is at R11 + cols[e]·R12 (R9 = cols, R10
// = vals, R12 = the stride in bytes), and DI walks it.

// ROWSETUP loads the walk of a group with off at off_base and the
// column stride at stride, and jumps to done for an empty group.
#define ROWSETUP(done) \
	MOVQ off_base+24(FP), R8; \
	MOVQ off_len+32(FP), CX; \
	DECQ CX; \
	JLE  done; \
	MOVQ cols_base+48(FP), R9; \
	MOVQ vals_base+72(FP), R10; \
	MOVQ ahat_base+96(FP), R11; \
	MOVQ stride+120(FP), R12; \
	SHLQ $3, R12

// ENTRYCOL points DI at column cols[AX] of Â and broadcasts vals[AX]
// into Z8.
#define ENTRYCOL \
	MOVQ         (R9)(AX*8), DI; \
	IMULQ        R12, DI; \
	ADDQ         R11, DI; \
	VBROADCASTSD (R10)(AX*8), Z8

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

// ---- ±1 columns ----

// SIGNSTEP adds ±a to accumulator acc: −a (Z9) where the low byte of DX
// has the lane's bit set, else a (Z8); DX moves on to the next byte.
#define SIGNSTEP(acc) \
	KMOVB     DX, K2; \
	VBLENDMPD Z9, Z8, K2, Z10; \
	VADDPD    Z10, acc, acc; \
	SHRQ      $8, DX

// STRIPMASK puts the mask of the rows of a 64-row strip with BX rows
// left in R10: all 64 when BX ≥ 64, else the low BX. CX is clobbered.
#define STRIPMASK(full) \
	MOVQ $-1, R10; \
	CMPQ BX, $64; \
	JAE  full; \
	MOVQ BX, CX; \
	MOVQ $1, R10; \
	SHLQ CX, R10; \
	DECQ R10; \
full:

// STRIPLOAD and STRIPSTORE move the rows of the strip at DI that R10
// selects into and out of Z0..Z7, eight rows per register; R10 is
// consumed.
#define STRIPLOAD(acc, n) \
	KMOVB       R10, K1; \
	VMOVUPD.Z   (n*64)(DI), K1, acc; \
	SHRQ        $8, R10

#define STRIPSTORE(acc, n) \
	KMOVB   R10, K1; \
	VMOVUPD acc, K1, (n*64)(DI); \
	SHRQ    $8, R10

// func signColsAVX(a []float64, words []uint64, y []float64)
//
// y in strips of 64 rows, one sign word per column each: a strip is
// loaded into Z0..Z7, every column is added to it in order, and it is
// stored. Rows past len(y) in the last strip are added to but never
// loaded or stored. SI walks the strip's word of column 0, R9 is the
// column stride in bytes, R11 counts columns and R13 and R8 walk a and
// the words within a strip.
TEXT ·signColsAVX(SB), NOSPLIT, $0-72
	MOVQ         y_len+56(FP), BX
	MOVQ         a_base+0(FP), AX
	MOVQ         a_len+8(FP), R11
	MOVQ         words_base+24(FP), SI
	MOVQ         y_base+48(FP), DI
	LEAQ         63(BX), R9
	SHRQ         $6, R9
	SHLQ         $3, R9
	VBROADCASTSD signbit<>(SB), Z31

scstrip:
	STRIPMASK(scfull)
	MOVQ R10, R12
	STRIPLOAD(Z0, 0)
	STRIPLOAD(Z1, 1)
	STRIPLOAD(Z2, 2)
	STRIPLOAD(Z3, 3)
	STRIPLOAD(Z4, 4)
	STRIPLOAD(Z5, 5)
	STRIPLOAD(Z6, 6)
	STRIPLOAD(Z7, 7)
	MOVQ AX, R13
	MOVQ SI, R8
	MOVQ R11, CX

sccol:
	VBROADCASTSD (R13), Z8
	VXORPD       Z8, Z31, Z9
	MOVQ         (R8), DX
	SIGNSTEP(Z0)
	SIGNSTEP(Z1)
	SIGNSTEP(Z2)
	SIGNSTEP(Z3)
	SIGNSTEP(Z4)
	SIGNSTEP(Z5)
	SIGNSTEP(Z6)
	SIGNSTEP(Z7)
	ADDQ         $8, R13
	ADDQ         R9, R8
	DECQ         CX
	JNZ          sccol

	MOVQ R12, R10
	STRIPSTORE(Z0, 0)
	STRIPSTORE(Z1, 1)
	STRIPSTORE(Z2, 2)
	STRIPSTORE(Z3, 3)
	STRIPSTORE(Z4, 4)
	STRIPSTORE(Z5, 5)
	STRIPSTORE(Z6, 6)
	STRIPSTORE(Z7, 7)
	ADDQ $512, DI
	ADDQ $8, SI
	SUBQ $64, BX
	JA   scstrip
	VZEROUPPER
	RET

// func axpyRowsAVX(x []float64, off, cols []int, vals []float64, ahat []float64, stride, d1 int)
//
// SI walks row b's column of S in x, R14 one entry's pass over it and
// R13 counts the rows of Â left in the pass: four registers per step,
// then one, then a masked last.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-136
	ROWSETUP(ardone)
	MOVQ x_base+0(FP), SI

arrow:
	MOVQ (R8), AX
	MOVQ 8(R8), BX
	CMPQ AX, BX
	JGE  arnext

arentry:
	ENTRYCOL
	MOVQ d1+128(FP), R13
	MOVQ SI, R14
	CMPQ R13, $32
	JB   arone

arfour:
	VMULPD   (R14), Z8, Z0
	VMULPD   64(R14), Z8, Z1
	VMULPD   128(R14), Z8, Z2
	VMULPD   192(R14), Z8, Z3
	VADDPD   (DI), Z0, Z0
	VADDPD   64(DI), Z1, Z1
	VADDPD   128(DI), Z2, Z2
	VADDPD   192(DI), Z3, Z3
	VMOVUPD  Z0, (DI)
	VMOVUPD  Z1, 64(DI)
	VMOVUPD  Z2, 128(DI)
	VMOVUPD  Z3, 192(DI)
	ADDQ     $256, R14
	ADDQ     $256, DI
	SUBQ     $32, R13
	CMPQ     R13, $32
	JAE      arfour

arone:
	CMPQ    R13, $8
	JB      arlast
	VMULPD  (R14), Z8, Z0
	VADDPD  (DI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, R14
	ADDQ    $64, DI
	SUBQ    $8, R13
	JMP     arone

arlast:
	TESTQ       R13, R13
	JZ          arentrydone
	LEAQ        lowmask<>(SB), DX
	MOVBQZX     (DX)(R13*1), DX
	KMOVB       DX, K1
	VMULPD.Z    (R14), Z8, K1, Z0
	VMOVUPD.Z   (DI), K1, Z1
	VADDPD      Z1, Z0, Z0
	VMOVUPD     Z0, K1, (DI)

arentrydone:
	INCQ AX
	CMPQ AX, BX
	JL   arentry

arnext:
	MOVQ d1+128(FP), DX
	LEAQ (SI)(DX*8), SI
	ADDQ $8, R8
	DECQ CX
	JNZ  arrow
	VZEROUPPER

ardone:
	RET

// func signRowsAVX(words []uint64, off, cols []int, vals []float64, ahat []float64, stride, d1 int)
//
// SI walks row b's sign words, R14 one entry's pass over them and R13
// counts the rows of Â left in the pass: whole words of 64 rows in eight
// unrolled steps, then a last partial word a step at a time.
TEXT ·signRowsAVX(SB), NOSPLIT, $0-136
	ROWSETUP(srdone)
	MOVQ         words_base+0(FP), SI
	VBROADCASTSD signbit<>(SB), Z31

srrow:
	MOVQ (R8), AX
	MOVQ 8(R8), BX
	CMPQ AX, BX
	JGE  srnext

srentry:
	ENTRYCOL
	VXORPD Z8, Z31, Z9
	MOVQ   d1+128(FP), R13
	MOVQ   SI, R14

srword:
	MOVQ (R14), DX
	ADDQ $8, R14
	CMPQ R13, $64
	JB   srpart

#define SIGNMEM(n) \
	KMOVB     DX, K2; \
	VBLENDMPD Z9, Z8, K2, Z10; \
	VADDPD    (n*64)(DI), Z10, Z10; \
	VMOVUPD   Z10, (n*64)(DI); \
	SHRQ      $8, DX

	SIGNMEM(0)
	SIGNMEM(1)
	SIGNMEM(2)
	SIGNMEM(3)
	SIGNMEM(4)
	SIGNMEM(5)
	SIGNMEM(6)
	SIGNMEM(7)
	ADDQ $512, DI
	SUBQ $64, R13
	JNZ  srword
	JMP  srentrydone

srpart:
	CMPQ R13, $8
	JB   srlast
	SIGNMEM(0)
	ADDQ $64, DI
	SUBQ $8, R13
	JMP  srpart

srlast:
	TESTQ     R13, R13
	JZ        srentrydone
	LEAQ      lowmask<>(SB), R14
	MOVBQZX   (R14)(R13*1), R14
	KMOVB     R14, K1
	KMOVB     DX, K2
	VBLENDMPD Z9, Z8, K2, Z10
	VMOVUPD.Z (DI), K1, Z11
	VADDPD    Z10, Z11, Z11
	VMOVUPD   Z11, K1, (DI)

srentrydone:
	INCQ AX
	CMPQ AX, BX
	JL   srentry

srnext:
	MOVQ d1+128(FP), DX
	ADDQ $63, DX
	SHRQ $6, DX
	LEAQ (SI)(DX*8), SI
	ADDQ $8, R8
	DECQ CX
	JNZ  srrow
	VZEROUPPER

srdone:
	RET

// ---- s-sparse columns ----

// The SJLT routines decode eight nonzeros per register: group t of a
// column is its words 8t..8t+7, with the rows of sjltDecode's table at
// tab + 256t (block starts, sizes, reciprocals, their high halves).
// Constants: Z31 the sign bit, Z30 the scale, Z29 i0, Z28 d1, Z27 the
// power-of-two mask, Z26 the low 32 bits; R14 points at the sjltDecode.

// DECODESETUP loads the constants from the sjltDecode at R14.
#define DECODESETUP \
	VBROADCASTSD signbit<>(SB), Z31; \
	VPBROADCASTQ sjltDecode_scale(R14), Z30; \
	VPBROADCASTQ sjltDecode_i0(R14), Z29; \
	VPBROADCASTQ sjltDecode_d1(R14), Z28; \
	VPBROADCASTQ sjltDecode_mask(R14), Z27; \
	VPBROADCASTQ low32<>(SB), Z26

// GROUPMASK sets K1 to the lanes of the group at byte offset R13 of a
// column: all eight but in the last group, where it is the decode's tail
// mask. DX is clobbered.
#define GROUPMASK \
	MOVQ    sjltDecode_groups(R14), DX; \
	SHLQ    $6, DX; \
	SUBQ    $64, DX; \
	CMPQ    R13, DX; \
	MOVQ    $0xFF, DX; \
	CMOVQEQ sjltDecode_tail(R14), DX; \
	KMOVB   DX, K1

// DECODE decodes the group of eight words at W under lane mask K1, with
// the group's table rows at T: Z1 gets each nonzero's row in the block
// row, K2 the lanes whose row lies in it, and Z2 the bits of ±scale. A
// power-of-two block takes the word mod its size as a mask, any other a
// multiply-high remainder (rng.Remainder): the high word of u·recip from
// four 32-bit products, then one correction. Z0, Z3..Z7 and K3 are
// clobbered; rem and row name this use's labels.
#define DECODE(W, T, rem, row) \
	VMOVDQU64.Z W, K1, Z0; \
	CMPQ        sjltDecode_pow2(R14), $0; \
	JEQ         rem; \
	VPANDQ      Z27, Z0, Z1; \
	JMP         row; \
rem: \
	VPSRLQ      $32, Z0, Z3; \
	VPMULUDQ    128(T), Z0, Z4; \
	VPMULUDQ    192(T), Z0, Z5; \
	VPMULUDQ    128(T), Z3, Z6; \
	VPMULUDQ    192(T), Z3, Z7; \
	VPSRLQ      $32, Z4, Z4; \
	VPADDQ      Z4, Z5, Z5; \
	VPANDQ      Z26, Z5, Z4; \
	VPADDQ      Z6, Z4, Z4; \
	VPSRLQ      $32, Z5, Z5; \
	VPSRLQ      $32, Z4, Z4; \
	VPADDQ      Z5, Z7, Z7; \
	VPADDQ      Z4, Z7, Z7; \
	VPMULLQ     64(T), Z7, Z7; \
	VPSUBQ      Z7, Z0, Z1; \
	VPCMPUQ     $5, 64(T), Z1, K3; \
	VPSUBQ      64(T), Z1, K3, Z1; \
row: \
	VPADDQ      (T), Z1, Z1; \
	VPSUBQ      Z29, Z1, Z1; \
	VPCMPUQ     $1, Z28, Z1, K1, K2; \
	VPANDQ      Z31, Z0, Z2; \
	VPXORQ      Z30, Z2, Z2

// SCATTERADD adds the decoded group's nonzeros, times a in Z8, to the
// column of Â at Y: a gather of the rows K2 selects, the rounded
// products ±scale·a added, a scatter back. Z5, Z6, K3 and K4 are
// clobbered.
#define SCATTERADD(Y) \
	VMULPD      Z8, Z2, Z5; \
	KMOVB       K2, K3; \
	VGATHERQPD  (Y)(Z1*8), K3, Z6; \
	VADDPD      Z5, Z6, Z6; \
	KMOVB       K2, K4; \
	VSCATTERQPD Z6, K4, (Y)(Z1*8)

// func scatterColsAVX(a []float64, words []uint64, y []float64, dec *sjltDecode)
//
// AX walks a and SI the words of column c; CX counts the columns left,
// R13 steps through a column's groups, 64 bytes of words each, up to R9,
// and R10 points at the group's table rows.
TEXT ·scatterColsAVX(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), AX
	MOVQ a_len+8(FP), CX
	MOVQ words_base+24(FP), SI
	MOVQ y_base+48(FP), DI
	MOVQ dec+72(FP), R14
	DECODESETUP
	MOVQ sjltDecode_groups(R14), R9
	SHLQ $6, R9
	MOVQ sjltDecode_tab(R14), R11

sccolumn:
	VBROADCASTSD (AX), Z8
	XORL         R13, R13

scgroup:
	GROUPMASK
	LEAQ (R11)(R13*4), R10
	DECODE((SI)(R13*1), R10, screm, scrow)
	KORTESTB K2, K2
	JZ       scskip
	SCATTERADD(DI)

scskip:
	ADDQ $64, R13
	CMPQ R13, R9
	JB   scgroup
	ADDQ $8, AX
	ADDQ sjltDecode_stride(R14), SI
	DECQ CX
	JNZ  sccolumn
	VZEROUPPER
	RET

// func scatterRowsAVX(words []uint64, off, cols []int, vals []float64, ahat []float64, stride int, dec *sjltDecode)
//
// SI walks row b's words and R13 its groups; each group is decoded once
// and added to the columns of all the row's entries.
TEXT ·scatterRowsAVX(SB), NOSPLIT, $0-136
	ROWSETUP(ssdone)
	MOVQ words_base+0(FP), SI
	MOVQ dec+128(FP), R14
	DECODESETUP

ssrow:
	MOVQ (R8), AX
	MOVQ 8(R8), BX
	CMPQ AX, BX
	JGE  ssnext
	XORL R13, R13

ssgroup:
	GROUPMASK
	MOVQ sjltDecode_tab(R14), DI
	LEAQ (DI)(R13*4), DI
	DECODE((SI)(R13*1), DI, ssrem, ssrowdone)
	KORTESTB K2, K2
	JZ       ssskip
	MOVQ     (R8), AX

ssentry:
	ENTRYCOL
	SCATTERADD(DI)
	INCQ AX
	CMPQ AX, BX
	JL   ssentry

ssskip:
	ADDQ $64, R13
	MOVQ sjltDecode_groups(R14), DX
	SHLQ $6, DX
	CMPQ R13, DX
	JB   ssgroup

ssnext:
	ADDQ sjltDecode_stride(R14), SI
	ADDQ $8, R8
	DECQ CX
	JNZ  ssrow
	VZEROUPPER

ssdone:
	RET
