//go:build !purego

#include "textflag.h"

// The AVX-512 backend of axpy and axpySign (loops.go). Only VEX and EVEX
// encodings, and a separate VMULPD and VADDPD, never a fused multiply-add:
// every element rounds exactly as in the Go loops.

DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

// func axpyAVX(a float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ y_len+40(FP), CX
	SHRQ $2, CX
	JZ   axpynone
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	VBROADCASTSD a+0(FP), Y0

axpyloop:
	VMULPD  (SI), Y0, Y1 // a·x, rounded
	VADDPD  (DI), Y1, Y1 // y + a·x, rounded
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop
	VZEROUPPER

axpynone:
	RET

// func axpySignAVX(a float64, words []uint64, y []float64)
//
// Element i adds −a when bit i of the word stream is set and a otherwise.
// A word signs 64 elements, sixteen groups of four.
TEXT ·axpySignAVX(SB), NOSPLIT, $0-56
	MOVQ y_len+40(FP), CX
	SHRQ $2, CX
	JZ   signnone
	MOVQ words_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	VBROADCASTSD a+0(FP), Y0
	VBROADCASTSD signbit<>(SB), Y1
	VXORPD       Y0, Y1, Y1 // −a: a with its sign bit flipped

signword:
	MOVQ (SI), AX
	ADDQ $8, SI
	MOVQ $16, DX

signgroup:
	KMOVB     AX, K1
	VBLENDMPD Y1, Y0, K1, Y2 // mask bit set: −a, else a
	VADDPD    (DI), Y2, Y2
	VMOVUPD   Y2, (DI)
	ADDQ      $32, DI
	SHRQ      $4, AX
	DECQ      CX
	JZ        signdone
	DECQ      DX
	JNZ       signgroup
	JMP       signword

signdone:
	VZEROUPPER

signnone:
	RET
