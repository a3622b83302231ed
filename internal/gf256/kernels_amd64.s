#include "textflag.h"

// AVX2 split-nibble kernels. A source byte x splits into nibbles x&15 and
// x>>4; VPSHUFB looks both up in the coefficient's 16-entry product tables
// (broadcast to both 128-bit lanes), and c*x is the XOR of the two
// lookups. Lengths are multiples of 32; the Go side handles the tail.

// LOADTABLES broadcasts the tables at (AX) and (BX) into Y0 and Y1, and
// the nibble mask 0x0f into every byte of Y2.
#define LOADTABLES \
	VBROADCASTI128 (AX), Y0; \
	VBROADCASTI128 (BX), Y1; \
	MOVQ $0x0f, DX; \
	VMOVQ DX, X2; \
	VPBROADCASTB X2, Y2

// MULBLOCK leaves c * the 32 bytes at (SI) in Y, clobbering T.
#define MULBLOCK(Y, T) \
	VMOVDQU (SI), Y; \
	VPSRLQ $4, Y, T; \
	VPAND Y2, Y, Y; \
	VPAND Y2, T, T; \
	VPSHUFB Y, Y0, Y; \
	VPSHUFB T, Y1, T; \
	VPXOR T, Y, Y

// func mulAVX2(lo, hi *[16]byte, src, dst []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-64
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	LOADTABLES
	MOVQ src_base+16(FP), SI
	MOVQ src_len+24(FP), CX
	MOVQ dst_base+40(FP), DI
	SHRQ $5, CX
	JZ   mulDone

mulLoop:
	MULBLOCK(Y4, Y5)
	VMOVDQU Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulLoop

mulDone:
	VZEROUPPER
	RET

// func mulAddAVX2(lo, hi *[16]byte, src, dst []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-64
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	LOADTABLES
	MOVQ src_base+16(FP), SI
	MOVQ src_len+24(FP), CX
	MOVQ dst_base+40(FP), DI
	SHRQ $5, CX
	JZ   mulAddDone

mulAddLoop:
	MULBLOCK(Y4, Y5)
	VPXOR   (DI), Y4, Y4
	VMOVDQU Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulAddLoop

mulAddDone:
	VZEROUPPER
	RET

// func xorAVX2(src, dst []byte)
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	SHRQ $5, CX
	JZ   xorDone

xorLoop:
	VMOVDQU (SI), Y4
	VPXOR   (DI), Y4, Y4
	VMOVDQU Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     xorLoop

xorDone:
	VZEROUPPER
	RET

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
