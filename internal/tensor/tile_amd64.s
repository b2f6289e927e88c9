// AVX2 GEMM micro-kernels: one rows×8 output tile (rows ≤ 4) held in
// registers.
//
// Y0..Y3 are the accumulators, one YMM register (8 floats) per output
// row. Each step p loads b[p][0:8] once into Y4, broadcasts a[r][p] for
// each row and adds the products into that row's accumulator. VMULPS
// computes b·a (b is the first source, which decides the bits of a
// NaN·NaN product) and VADDPS computes prod + acc, each lane rounded on
// its own and nothing fused, so every lane is one IEEE chain per element
// from +0 in ascending p, the sequence tile4x8Go (tile.go) and the
// reference loops compute. The accumulators are stored once, after
// the k loop. a is addressed with a row stride (lda) and a step stride
// (ak), so the same kernel reads a row-major or a transposed a. Rows past
// `rows` read row 0 again and are not stored.
//
// tile4x8Skip adds a compare-and-mask: lanes whose b factor is ±0 add +0
// instead of the product. A chain from +0 never holds −0, so acc + (+0)
// equals acc for every value it can hold (NaN and ±Inf included), which
// is exactly skipping the product. Steps whose eight b factors are all
// nonzero — nearly all of them, as dY is dense — branch to the unmasked
// body, which gives the same bits without the five mask instructions.

#include "textflag.h"

// Kernel prologue: DI = dst, R8 = ldd bytes, SI/R11/R12/R13 = a rows 0..3
// (rows past `rows` alias row 0), R9 = rows, BX = ak bytes, DX = b,
// R10 = ldb bytes, CX = k, AX = 0 (the a step offset), accumulators zeroed.
#define PROLOGUE \
	MOVQ   dst_base+0(FP), DI; \
	MOVQ   ldd+24(FP), R8; \
	SHLQ   $2, R8; \
	MOVQ   a_base+32(FP), SI; \
	MOVQ   ak+64(FP), BX; \
	SHLQ   $2, BX; \
	MOVQ   b_base+72(FP), DX; \
	MOVQ   ldb+96(FP), R10; \
	SHLQ   $2, R10; \
	MOVQ   k+104(FP), CX; \
	MOVQ   rows+112(FP), R9; \
	MOVQ   lda+56(FP), AX; \
	SHLQ   $2, AX; \
	LEAQ   (SI)(AX*1), R11; \
	LEAQ   (R11)(AX*1), R12; \
	LEAQ   (R12)(AX*1), R13; \
	CMPQ   R9, $2; \
	CMOVQLT SI, R11; \
	CMPQ   R9, $3; \
	CMOVQLT SI, R12; \
	CMPQ   R9, $4; \
	CMOVQLT SI, R13; \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	XORQ   AX, AX

// One row of the tile: acc += b·a[row][p].
#define ROW(aptr, acc, tmp) \
	VBROADCASTSS (aptr)(AX*1), tmp; \
	VMULPS       tmp, Y4, tmp; \
	VADDPS       acc, tmp, acc

// One row with the mask in Y5: acc += (b·a[row][p]) & (b != 0).
#define ROWSKIP(aptr, acc, tmp) \
	VBROADCASTSS (aptr)(AX*1), tmp; \
	VMULPS       tmp, Y4, tmp; \
	VANDPS       Y5, tmp, tmp; \
	VADDPS       acc, tmp, acc

// Store the first `rows` accumulators (R9 = rows) and return.
#define EPILOGUE \
	VMOVUPS Y0, (DI); \
	CMPQ    R9, $2; \
	JLT     done; \
	ADDQ    R8, DI; \
	VMOVUPS Y1, (DI); \
	CMPQ    R9, $3; \
	JLT     done; \
	ADDQ    R8, DI; \
	VMOVUPS Y2, (DI); \
	CMPQ    R9, $4; \
	JLT     done; \
	ADDQ    R8, DI; \
	VMOVUPS Y3, (DI); \
done: \
	VZEROUPPER; \
	RET

// func tile4x8AVX2(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int)
TEXT ·tile4x8AVX2(SB), NOSPLIT, $0-120
	PROLOGUE
	TESTQ CX, CX
	JLE   store

loop:
	VMOVUPS (DX), Y4
	ROW(SI, Y0, Y6)
	ROW(R11, Y1, Y7)
	ROW(R12, Y2, Y8)
	ROW(R13, Y3, Y9)
	ADDQ    BX, AX
	ADDQ    R10, DX
	DECQ    CX
	JNZ     loop

store:
	EPILOGUE

// func tile4x8SkipAVX2(dst []float32, ldd int, a []float32, lda, ak int, b []float32, ldb, k, rows int)
TEXT ·tile4x8SkipAVX2(SB), NOSPLIT, $0-120
	PROLOGUE
	VXORPS Y10, Y10, Y10
	TESTQ  CX, CX
	JLE    store

loop:
	VMOVUPS   (DX), Y4
	VCMPPS    $4, Y10, Y4, Y5     // NEQ_UQ: all-ones unless b is ±0
	VMOVMSKPS Y5, R9
	CMPL      R9, $0xff
	JNE       masked              // some b factor is ±0
	ROW(SI, Y0, Y6)
	ROW(R11, Y1, Y7)
	ROW(R12, Y2, Y8)
	ROW(R13, Y3, Y9)
	JMP       next

masked:
	ROWSKIP(SI, Y0, Y6)
	ROWSKIP(R11, Y1, Y7)
	ROWSKIP(R12, Y2, Y8)
	ROWSKIP(R13, Y3, Y9)

next:
	ADDQ BX, AX
	ADDQ R10, DX
	DECQ CX
	JNZ  loop

store:
	MOVQ rows+112(FP), R9 // R9 held the lane mask in the loop
	EPILOGUE
