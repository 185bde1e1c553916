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
//	DI dest cursor   SI p1 cursor   DX p2 cursor
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

// Compact-child kernels (compact4.go). A side table row is one vector: 32
// bytes in float64, 16 in float32, found at the class id shifted left.
//
//	DI dest cursor   BX first ids cursor   R8 second ids cursor
//	R9 first side table   R10 second side table   DX p2 cursor
//	CX iterations left

// func gatherGather4F64AVX2(dest []float64, g1 []int32, t1 []float64, g2 []int32, t2 []float64)
TEXT ·gatherGather4F64AVX2(SB), NOSPLIT, $0-120
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ g1_base+24(FP), BX
	MOVQ t1_base+48(FP), R9
	MOVQ g2_base+72(FP), R8
	MOVQ t2_base+96(FP), R10
	SHRQ $2, CX
	JZ   done

loop:
	MOVL    0(BX), R11
	SHLQ    $5, R11
	MOVL    0(R8), R12
	SHLQ    $5, R12
	VMOVUPD (R9)(R11*1), Y0
	VMULPD  (R10)(R12*1), Y0, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $4, BX
	ADDQ    $4, R8
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func gatherGather4F32AVX2(dest []float32, g1 []int32, t1 []float32, g2 []int32, t2 []float32)
TEXT ·gatherGather4F32AVX2(SB), NOSPLIT, $0-120
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ g1_base+24(FP), BX
	MOVQ t1_base+48(FP), R9
	MOVQ g2_base+72(FP), R8
	MOVQ t2_base+96(FP), R10
	SHRQ $2, CX
	JZ   done

loop:
	MOVL    0(BX), R11
	SHLQ    $4, R11
	MOVL    0(R8), R12
	SHLQ    $4, R12
	VMOVUPS (R9)(R11*1), X0
	VMULPS  (R10)(R12*1), X0, X0
	VMOVUPS X0, 0(DI)
	ADDQ    $4, BX
	ADDQ    $4, R8
	ADDQ    $16, DI
	DECQ    CX
	JNZ     loop

done:
	RET

// func gatherPartials4F64AVX2(dest []float64, g []int32, t1, p2, mt []float64)
TEXT ·gatherPartials4F64AVX2(SB), NOSPLIT, $0-120
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ g_base+24(FP), BX
	MOVQ t1_base+48(FP), R9
	MOVQ p2_base+72(FP), DX
	MOVQ mt_base+96(FP), AX
	SHRQ $2, CX
	JZ   done
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11

loop:
	MOVL    0(BX), R11
	SHLQ    $5, R11
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

// func gatherPartials4F32AVX2(dest []float32, g []int32, t1, p2, mt []float32)
TEXT ·gatherPartials4F32AVX2(SB), NOSPLIT, $0-120
	MOVQ dest_base+0(FP), DI
	MOVQ dest_len+8(FP), CX
	MOVQ g_base+24(FP), BX
	MOVQ t1_base+48(FP), R9
	MOVQ p2_base+72(FP), DX
	MOVQ mt_base+96(FP), AX
	SHRQ $3, CX
	JZ   done
	VBROADCASTF128 0(AX), Y8
	VBROADCASTF128 16(AX), Y9
	VBROADCASTF128 32(AX), Y10
	VBROADCASTF128 48(AX), Y11

loop:
	MOVL        0(BX), R11
	SHLQ        $4, R11
	MOVL        4(BX), R12
	SHLQ        $4, R12
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

// Compact-table builders (compact4.go). A side row is DOT4 of a table row
// through the category's transposed matrix, the lanes across the four
// states, stored as is; a class-table row is one row of the first side table,
// held in a register, times each row of the second.
//
//	DI out cursor   SI tab / s1 cursor   DX s2   R9 s2 cursor
//	BX s1 rows left   CX iterations left
//	R8 s2 rows (row pairs in float32)   R10 1 if float32's s2 rows are odd
//	Y8–Y11 the matrix's columns, or Y8 the s1 row

// func sideRows4F64AVX2(out, tab, mt []float64)
TEXT ·sideRows4F64AVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ tab_base+24(FP), SI
	MOVQ mt_base+48(FP), AX
	SHRQ $2, CX
	JZ   done
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11

loop:
	DOT4F64(SI, Y8, Y9, Y10, Y11, Y0, Y1)
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func sideRows4F32AVX2(out, tab, mt []float32)
TEXT ·sideRows4F32AVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ tab_base+24(FP), SI
	MOVQ mt_base+48(FP), AX
	SHRQ $3, CX
	JZ   done
	VBROADCASTF128 0(AX), Y8
	VBROADCASTF128 16(AX), Y9
	VBROADCASTF128 32(AX), Y10
	VBROADCASTF128 48(AX), Y11

loop:
	DOT4F32(SI, Y8, Y9, Y10, Y11, Y0, Y1, Y4)
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func classTable4F64AVX2(tab, s1, s2 []float64)
TEXT ·classTable4F64AVX2(SB), NOSPLIT, $0-72
	MOVQ tab_base+0(FP), DI
	MOVQ s1_base+24(FP), SI
	MOVQ s1_len+32(FP), BX
	MOVQ s2_base+48(FP), DX
	MOVQ s2_len+56(FP), R8
	SHRQ $2, BX
	JZ   done
	SHRQ $2, R8
	JZ   done

outer:
	VMOVUPD 0(SI), Y8
	MOVQ    DX, R9
	MOVQ    R8, CX

inner:
	VMULPD  0(R9), Y8, Y0
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     inner
	ADDQ    $32, SI
	DECQ    BX
	JNZ     outer
	VZEROUPPER

done:
	RET

// func classTable4F32AVX2(tab, s1, s2 []float32)
TEXT ·classTable4F32AVX2(SB), NOSPLIT, $0-72
	MOVQ tab_base+0(FP), DI
	MOVQ s1_base+24(FP), SI
	MOVQ s1_len+32(FP), BX
	MOVQ s2_base+48(FP), DX
	MOVQ s2_len+56(FP), R8
	SHRQ $2, BX
	JZ   done
	SHRQ $2, R8
	JZ   done
	MOVQ R8, R10
	ANDQ $1, R10
	SHRQ $1, R8

outer:
	VBROADCASTF128 0(SI), Y8
	MOVQ           DX, R9
	MOVQ           R8, CX
	TESTQ          CX, CX
	JZ             odd

pairs:
	VMULPS  0(R9), Y8, Y0
	VMOVUPS Y0, 0(DI)
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pairs

odd:
	TESTQ   R10, R10
	JZ      next
	VMULPS  0(R9), X8, X0
	VMOVUPS X0, 0(DI)
	ADDQ    $16, DI

next:
	ADDQ $16, SI
	DECQ BX
	JNZ  outer
	VZEROUPPER

done:
	RET
