#include "textflag.h"

// The assembly arm of kernel.go's three loops: AVX1, four float64 lanes
// to a Y register, every lane doing the float operations of its Go loop
// in the same order. A product is rounded before it is added or
// compared; there is no fused multiply-add in this file, and a test
// fails if one appears. Each hot loop starts on a 32-byte boundary, so
// what it costs does not depend on where the linker places the package.

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpyAVX(c float64, x, y []float64)
// y[i] += c*x[i] for i < len(x): four at a time, then one.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD c+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpy1

	PCALIGN $32

axpy4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      axpy4

axpy1:
	CMPQ AX, CX
	JAE  axpydone

axpy1loop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     axpy1loop

axpydone:
	VZEROUPPER
	RET

// func squareAVX(dst, src []float64)
// dst[i] = src[i]*src[i] for i < len(src): four at a time, then one.
TEXT ·squareAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   square1

	PCALIGN $32

square4:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      square4

square1:
	CMPQ AX, CX
	JAE  squaredone

square1loop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     square1loop

squaredone:
	VZEROUPPER
	RET

// func threshold64AVX(a *[64]float64, dose, thr float64) uint64
// Bit i of the result is (a[i]*a[i])*dose >= thr, eight amplitudes a
// turn: square, scale, compare (GE_OS: false on a NaN either side, as
// Go's >= is) and take the four sign bits of each compare.
TEXT ·threshold64AVX(SB), NOSPLIT, $0-32
	MOVQ         a+0(FP), SI
	VBROADCASTSD dose+8(FP), Y0
	VBROADCASTSD thr+16(FP), Y1
	XORQ         AX, AX
	XORQ         CX, CX

	PCALIGN $32

threshold8:
	VMOVUPD   (SI), Y2
	VMOVUPD   32(SI), Y3
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VMULPD    Y0, Y2, Y2
	VMULPD    Y0, Y3, Y3
	VCMPPD    $0x0d, Y1, Y2, Y2
	VCMPPD    $0x0d, Y1, Y3, Y3
	VMOVMSKPD Y2, DX
	VMOVMSKPD Y3, BX
	SHLQ      $4, BX
	ORQ       BX, DX
	SHLQ      CX, DX
	ORQ       DX, AX
	ADDQ      $64, SI
	ADDQ      $8, CX
	CMPQ      CX, $64
	JB        threshold8

	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
