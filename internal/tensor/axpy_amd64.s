// AVX2 axpy kernel: dst[j] += v*src[j] for j < len(src).
//
// Each element is one multiply and one add in IEEE float32, exactly like
// the Go loop: VMULPS computes src·v (src is the first source, which
// decides the bits of a NaN·NaN product) and VADDPS computes prod + dst,
// each lane rounded on its own and nothing fused, so vectorising across j
// (distinct output elements) cannot change any result bit. Callers reach it only when the CPU has
// AVX2 (kernels.go). The caller guarantees len(dst) >= len(src).

#include "textflag.h"

// func axpyAVX2(dst, src []float32, v float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS v+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX          // main loop: 16 elements per iteration
	CMPQ         AX, BX
	JGE          tail8

loop16:
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS 32(SI)(AX*4), Y2
	VMULPS  Y0, Y1, Y1             // src·v
	VMULPS  Y0, Y2, Y2
	VADDPS  (DI)(AX*4), Y1, Y1     // prod + dst
	VADDPS  32(DI)(AX*4), Y2, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     loop16

tail8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  tail

	VMOVUPS (SI)(AX*4), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX

tail:
	CMPQ AX, CX
	JGE  done

tailloop:
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VADDSS (DI)(AX*4), X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    tailloop

done:
	VZEROUPPER
	RET
