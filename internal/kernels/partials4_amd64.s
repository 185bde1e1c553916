//go:build amd64 && !purego

#include "textflag.h"

// Four-state partials kernels, lanes across the four output states. mt holds
// the transposed matrices the Go wrappers build per category: column j of a
// matrix, (m[0][j], m[1][j], m[2][j], m[3][j]), is one vector, held in a
// register for the whole pattern loop. Each lane computes, for its state i,
//
//	((m[i][0]·a0 + m[i][1]·a1) + m[i][2]·a2) + m[i][3]·a3
//
// with one rounding per multiply and per add, in that order — the unrolled
// Go body's sequence — and multiplies the two children's sums. No fused
// multiply-add: it would round once where the Go body rounds twice.
//
//	DI dest cursor   SI p1 cursor   DX p2 cursor   BX tip-state cursor
//	CX iterations left              AX mt
//	Y8–Y11 first child's columns    Y12–Y15 second child's columns

// DOT4F64 leaves in acc the four lanes' sums for the float64 pattern at
// 0(src), broadcasting each of its entries across a register.
#define DOT4F64(src, c0, c1, c2, c3, acc, tmp) \
	VBROADCASTSD 0(src), acc; \
	VMULPD c0, acc, acc; \
	VBROADCASTSD 8(src), tmp; \
	VMULPD c1, tmp, tmp; \
	VADDPD tmp, acc, acc; \
	VBROADCASTSD 16(src), tmp; \
	VMULPD c2, tmp, tmp; \
	VADDPD tmp, acc, acc; \
	VBROADCASTSD 24(src), tmp; \
	VMULPD c3, tmp, tmp; \
	VADDPD tmp, acc, acc

// DOT4F32 is DOT4F64 for the two float32 patterns at 0(src), one per 128-bit
// half: the columns were broadcast to both halves, and VPERMILPS broadcasts
// entry j of each pattern within its own half.
#define DOT4F32(src, c0, c1, c2, c3, acc, tmp, in) \
	VMOVUPS 0(src), in; \
	VPERMILPS $0x00, in, acc; \
	VMULPS c0, acc, acc; \
	VPERMILPS $0x55, in, tmp; \
	VMULPS c1, tmp, tmp; \
	VADDPS tmp, acc, acc; \
	VPERMILPS $0xaa, in, tmp; \
	VMULPS c2, tmp, tmp; \
	VADDPS tmp, acc, acc; \
	VPERMILPS $0xff, in, tmp; \
	VMULPS c3, tmp, tmp; \
	VADDPS tmp, acc, acc

// CLAMPSTATE loads the tip state at off(BX) into reg and turns it into the
// byte offset of its column: states above 4 (as unsigned, so negative ones
// too) become 4, the all-ones gap column, without a branch. R10 holds 4.
#define CLAMPSTATE(off, reg, shift) \
	MOVL off(BX), reg; \
	CMPL reg, $4; \
	CMOVLHI R10, reg; \
	SHLQ $shift, reg

// func partialsPartials4F64AVX2(dest, p1, p2, mt []float64)
TEXT ·partialsPartials4F64AVX2(SB), NOSPLIT, $0-96
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ p1_base+24(FP), SI
	MOVQ p2_base+48(FP), DX
	MOVQ mt_base+72(FP), AX
	SHRQ $2, CX
	JZ   done
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	VMOVUPD 128(AX), Y12
	VMOVUPD 160(AX), Y13
	VMOVUPD 192(AX), Y14
	VMOVUPD 224(AX), Y15

loop:
	DOT4F64(SI, Y8, Y9, Y10, Y11, Y0, Y1)
	DOT4F64(DX, Y12, Y13, Y14, Y15, Y2, Y3)
	VMULPD  Y2, Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func partialsPartials4F32AVX2(dest, p1, p2, mt []float32)
TEXT ·partialsPartials4F32AVX2(SB), NOSPLIT, $0-96
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ p1_base+24(FP), SI
	MOVQ p2_base+48(FP), DX
	MOVQ mt_base+72(FP), AX
	SHRQ $3, CX
	JZ   done
	VBROADCASTF128 0(AX), Y8
	VBROADCASTF128 16(AX), Y9
	VBROADCASTF128 32(AX), Y10
	VBROADCASTF128 48(AX), Y11
	VBROADCASTF128 64(AX), Y12
	VBROADCASTF128 80(AX), Y13
	VBROADCASTF128 96(AX), Y14
	VBROADCASTF128 112(AX), Y15

loop:
	DOT4F32(SI, Y8, Y9, Y10, Y11, Y0, Y1, Y4)
	DOT4F32(DX, Y12, Y13, Y14, Y15, Y2, Y3, Y5)
	VMULPS  Y2, Y0, Y0
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func statesPartials4F64AVX2(dest []float64, s []int32, p2, mt []float64)
TEXT ·statesPartials4F64AVX2(SB), NOSPLIT, $0-96
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ s_base+24(FP), BX
	MOVQ p2_base+48(FP), DX
	MOVQ mt_base+72(FP), AX
	SHRQ $2, CX
	JZ   done
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	LEAQ    128(AX), R9 // the tip child's five columns, 32 bytes each
	MOVL    $4, R10

loop:
	CLAMPSTATE(0, R11, 5)
	DOT4F64(DX, Y8, Y9, Y10, Y11, Y0, Y1)
	VMULPD  (R9)(R11*1), Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $4, BX
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func statesPartials4F32AVX2(dest []float32, s []int32, p2, mt []float32)
TEXT ·statesPartials4F32AVX2(SB), NOSPLIT, $0-96
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ s_base+24(FP), BX
	MOVQ p2_base+48(FP), DX
	MOVQ mt_base+72(FP), AX
	SHRQ $3, CX
	JZ   done
	VBROADCASTF128 0(AX), Y8
	VBROADCASTF128 16(AX), Y9
	VBROADCASTF128 32(AX), Y10
	VBROADCASTF128 48(AX), Y11
	LEAQ           64(AX), R9 // the tip child's five columns, 16 bytes each
	MOVL           $4, R10

loop:
	CLAMPSTATE(0, R11, 4)
	CLAMPSTATE(4, R12, 4)
	DOT4F32(DX, Y8, Y9, Y10, Y11, Y0, Y1, Y4)
	VMOVUPS     (R9)(R11*1), X2
	VINSERTF128 $1, (R9)(R12*1), Y2, Y2
	VMULPS      Y2, Y0, Y0
	VMOVUPS     Y0, 0(DI)
	ADDQ        $8, BX
	ADDQ        $32, DX
	ADDQ        $32, DI
	DECQ        CX
	JNZ         loop
	VZEROUPPER

done:
	RET
