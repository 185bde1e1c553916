//go:build amd64 && !purego

#include "textflag.h"

// Both precisions share one loop nest; only the element size and the three
// instructions differ. Lengths are converted to bytes on entry so the tile
// thresholds and offsets are the same for float64 and float32.
//
//	DI acc cursor    SI mt column cursor    DX v    CX len(v)
//	R8 outputs left, in bytes               R9 row pitch of mt, in bytes
//
// Outputs are produced in register tiles of 8, 4 and 1 vectors. Within a
// tile every accumulator starts at +0 and takes, for j ascending, one
// multiply and one separately rounded add — the scalar kernel's sequence in
// every lane. No fused multiply-add: it would change the rounding.

#define STEP(MUL, ADD, off, tmp, acc) \
	MUL off(AX), Y8, tmp; \
	ADD tmp, acc, acc

#define VECMATT(BCAST, MUL, ADD, ESIZE) \
tile8: \
	CMPQ R8, $256; \
	JLT  tile4; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ CX, R10; \
loop8: \
	BCAST (BX), Y8; \
	STEP(MUL, ADD, 0, Y9, Y0); \
	STEP(MUL, ADD, 32, Y10, Y1); \
	STEP(MUL, ADD, 64, Y11, Y2); \
	STEP(MUL, ADD, 96, Y12, Y3); \
	STEP(MUL, ADD, 128, Y13, Y4); \
	STEP(MUL, ADD, 160, Y14, Y5); \
	STEP(MUL, ADD, 192, Y15, Y6); \
	STEP(MUL, ADD, 224, Y9, Y7); \
	ADDQ R9, AX; \
	ADDQ $ESIZE, BX; \
	DECQ R10; \
	JNZ  loop8; \
	VMOVUPD Y0, 0(DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI); \
	VMOVUPD Y4, 128(DI); \
	VMOVUPD Y5, 160(DI); \
	VMOVUPD Y6, 192(DI); \
	VMOVUPD Y7, 224(DI); \
	ADDQ $256, DI; \
	ADDQ $256, SI; \
	SUBQ $256, R8; \
	JMP  tile8; \
tile4: \
	CMPQ R8, $128; \
	JLT  tile1; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ CX, R10; \
loop4: \
	BCAST (BX), Y8; \
	STEP(MUL, ADD, 0, Y9, Y0); \
	STEP(MUL, ADD, 32, Y10, Y1); \
	STEP(MUL, ADD, 64, Y11, Y2); \
	STEP(MUL, ADD, 96, Y12, Y3); \
	ADDQ R9, AX; \
	ADDQ $ESIZE, BX; \
	DECQ R10; \
	JNZ  loop4; \
	VMOVUPD Y0, 0(DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI); \
	ADDQ $128, DI; \
	ADDQ $128, SI; \
	SUBQ $128, R8; \
tile1: \
	CMPQ R8, $32; \
	JLT  done; \
	VXORPD Y0, Y0, Y0; \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ CX, R10; \
loop1: \
	BCAST (BX), Y8; \
	STEP(MUL, ADD, 0, Y9, Y0); \
	ADDQ R9, AX; \
	ADDQ $ESIZE, BX; \
	DECQ R10; \
	JNZ  loop1; \
	VMOVUPD Y0, 0(DI); \
	ADDQ $32, DI; \
	ADDQ $32, SI; \
	SUBQ $32, R8; \
	JMP  tile1; \
done: \
	VZEROUPPER; \
	RET

// func vecMatT64AVX2(acc, mt, v []float64)
TEXT ·vecMatT64AVX2(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	MOVQ mt_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ v_len+56(FP), CX
	SHLQ $3, R8
	MOVQ R8, R9
	VECMATT(VBROADCASTSD, VMULPD, VADDPD, 8)

// func vecMatT32AVX2(acc, mt, v []float32)
TEXT ·vecMatT32AVX2(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	MOVQ mt_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ v_len+56(FP), CX
	SHLQ $2, R8
	MOVQ R8, R9
	VECMATT(VBROADCASTSS, VMULPS, VADDPS, 4)

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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
