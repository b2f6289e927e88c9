// SSE2 GEMM micro-kernel: one 4×8 output tile held in registers.
//
// X0..X7 are the accumulators, two XMM registers (8 floats) per output
// row. Each step p loads b[p][0:8] once into X8/X9, broadcasts a[r][p] into
// X10 for each of the four rows, and adds the products into that row's
// accumulators. The operand order matches axpy exactly — MULPS computes
// b·a (b is the destination operand) and ADDPS computes prod + acc — and
// nothing is fused, so every lane is the same IEEE operation sequence as
// axpy on a pre-zeroed output: one chain per element from +0, ascending
// p. The accumulators are stored once, after the k loop. SSE2 is the amd64
// baseline: no feature detection needed.

#include "textflag.h"

// One row of the tile: X10 = broadcast a[row][p], then acc += b·a.
#define ROW(aptr, accLo, accHi) \
	MOVSS  (aptr)(AX*4), X10; \
	SHUFPS $0x00, X10, X10; \
	MOVAPS X8, X11; \
	MOVAPS X9, X12; \
	MULPS  X10, X11; \
	MULPS  X10, X12; \
	ADDPS  accLo, X11; \
	ADDPS  accHi, X12; \
	MOVAPS X11, accLo; \
	MOVAPS X12, accHi

// func tile4x8(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, k int)
TEXT ·tile4x8(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	SHLQ $2, R8                // dst row stride in bytes
	MOVQ a_base+32(FP), SI
	MOVQ lda+56(FP), R9
	SHLQ $2, R9                // a row stride in bytes
	MOVQ b_base+64(FP), DX
	MOVQ ldb+88(FP), R10
	SHLQ $2, R10               // b row stride in bytes
	MOVQ k+96(FP), CX

	LEAQ (SI)(R9*1), R11       // a row 1
	LEAQ (R11)(R9*1), R12      // a row 2
	LEAQ (R12)(R9*1), R13      // a row 3

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	XORQ AX, AX
	CMPQ AX, CX
	JGE  store

loop:
	MOVUPS (DX), X8
	MOVUPS 16(DX), X9
	ROW(SI, X0, X1)
	ROW(R11, X2, X3)
	ROW(R12, X4, X5)
	ROW(R13, X6, X7)
	ADDQ R10, DX
	INCQ AX
	CMPQ AX, CX
	JLT  loop

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   R8, DI
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	ADDQ   R8, DI
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	ADDQ   R8, DI
	MOVUPS X6, (DI)
	MOVUPS X7, 16(DI)
	RET
