#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func fold4AVX(d []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 *float64)
TEXT ·fold4AVX(SB), NOSPLIT, $0-88
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	SHLQ         $3, CX              // CX = len(d) in bytes
	VBROADCASTSD c0+24(FP), Y0
	VBROADCASTSD c1+32(FP), Y1
	VBROADCASTSD c2+40(FP), Y2
	VBROADCASTSD c3+48(FP), Y3
	MOVQ         x0+56(FP), R8
	MOVQ         x1+64(FP), R9
	MOVQ         x2+72(FP), R10
	MOVQ         x3+80(FP), R11
	XORQ         AX, AX              // AX = byte offset of the vector

loop:
	VMULPD  (R8)(AX*1), Y0, Y4  // c0·x0
	VMULPD  (R9)(AX*1), Y1, Y5  // c1·x1
	VADDPD  Y5, Y4, Y4          // c0·x0 + c1·x1
	VMULPD  (R10)(AX*1), Y2, Y5 // c2·x2
	VMULPD  (R11)(AX*1), Y3, Y6 // c3·x3
	VADDPD  Y6, Y5, Y5          // c2·x2 + c3·x3
	VADDPD  Y5, Y4, Y4          // the two pairs
	VADDPD  (DI)(AX*1), Y4, Y4  // d + the fold
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET
