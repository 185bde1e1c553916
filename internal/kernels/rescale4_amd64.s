//go:build amd64 && !purego

#include "textflag.h"

// RescalePartials at four states. A pattern's four entries in a category
// are one vector (float32 entries widened to float64 on load, as the Go body
// widens them), so a pattern's maximum over categories is a lane-wise
// signed-integer maximum of the entries' bits, started from 0 and folded
// across the lanes at the end. From that key, the exponent test and the
// factor's bits are integer arithmetic; the log factor is
// float64(exp-1022)·ln2, one exact conversion and one multiply; and the
// factor is applied in float64 and narrowed back for float32. Each is the
// Go body's own operation, so the bits are its bits.
//
// Patterns go four to a block: four independent maxima, transposed so that
// one vector holds the four patterns' keys, and the exponent arithmetic
// done across them in vector registers (int64 → float64 by the 2^52+2^51
// magic number, exact for these small integers). A block holding a pattern
// pow2Scale would decline, and the span's last one to three patterns, go
// one at a time; that loop returns at a declined pattern, leaving it
// untouched, and the Go caller finishes it and resumes. Only VEX encodings:
// a legacy-SSE instruction after a 256-bit one costs a state transition on
// every use.
//
//	DI pattern cursor (category 0)    SI scale cursor    CX patterns
//	R8 category stride, in bytes      R9 categories      R13 patterns done
//	Y13 2044, Y14 2045 (int64 lanes)    Y15 ln2 (float64 lanes)

DATA rescaleConst<>+0(SB)/8, $2044
DATA rescaleConst<>+8(SB)/8, $2045
DATA rescaleConst<>+16(SB)/8, $0x3fe62e42fefa39ef // ln2
DATA rescaleConst<>+24(SB)/8, $0x4338000000000000 // 2^52+2^51
DATA rescaleConst<>+32(SB)/8, $0x43380000000003fe // 2^52+2^51+1022
GLOBL rescaleConst<>(SB), RODATA|NOPTR, $40

// MAX folds acc = max(acc, x) as signed 64-bit integers, lane by lane.
#define MAX(x, acc, tmp) \
	VPCMPGTQ  acc, x, tmp; \
	VBLENDVPD tmp, x, acc, acc

#define LOADF64 VMOVDQU (AX), Y1
#define LOADF32 VCVTPS2PD (AX), Y1

#define LOAD4F64 \
	VMOVDQU 0(AX), Y4; \
	VMOVDQU 32(AX), Y5; \
	VMOVDQU 64(AX), Y6; \
	VMOVDQU 96(AX), Y7

#define LOAD4F32 \
	VCVTPS2PD 0(AX), Y4; \
	VCVTPS2PD 16(AX), Y5; \
	VCVTPS2PD 32(AX), Y6; \
	VCVTPS2PD 48(AX), Y7

#define APPLYF64(off, f) \
	VMULPD  off(AX), f, Y0; \
	VMOVUPD Y0, off(AX)

#define APPLYF32(off, f) \
	VCVTPS2PD  off(AX), Y0; \
	VMULPD     f, Y0, Y0; \
	VCVTPD2PSY Y0, X0; \
	VMOVUPS    X0, off(AX)

#define APPLY1F64 APPLYF64(0, Y3)
#define APPLY1F32 APPLYF32(0, Y3)

#define APPLY4F64 \
	APPLYF64(0, Y9); \
	APPLYF64(32, Y10); \
	APPLYF64(64, Y11); \
	APPLYF64(96, Y12)

#define APPLY4F32 \
	APPLYF32(0, Y9); \
	APPLYF32(16, Y10); \
	APPLYF32(32, Y11); \
	APPLYF32(48, Y12)

// RESCALE is the loop for one precision, ESIZE bytes an entry.
#define RESCALE(ESIZE, LOAD1, LOAD4, APPLY1, APPLY4) \
	MOVQ         col_base+0(FP), DI; \
	MOVQ         scale_base+24(FP), SI; \
	MOVQ         scale_len+32(FP), CX; \
	MOVQ         stride+48(FP), R8; \
	MOVQ         cats+56(FP), R9; \
	IMULQ        $ESIZE, R8; \
	XORQ         R13, R13; \
	VPBROADCASTQ rescaleConst<>+0(SB), Y13; \
	VPBROADCASTQ rescaleConst<>+8(SB), Y14; \
	VPBROADCASTQ rescaleConst<>+16(SB), Y15; \
block: \
	MOVQ         CX, DX; \
	SUBQ         R13, DX; \
	CMPQ         DX, $4; \
	JLT          single; \
	VPXOR        Y0, Y0, Y0; \
	VPXOR        Y1, Y1, Y1; \
	VPXOR        Y2, Y2, Y2; \
	VPXOR        Y3, Y3, Y3; \
	MOVQ         DI, AX; \
	MOVQ         R9, R10; \
max4: \
	LOAD4; \
	MAX(Y4, Y0, Y8); \
	MAX(Y5, Y1, Y9); \
	MAX(Y6, Y2, Y10); \
	MAX(Y7, Y3, Y11); \
	ADDQ         R8, AX; \
	DECQ         R10; \
	JNZ          max4; \
	VPUNPCKLQDQ  Y1, Y0, Y4; \
	VPUNPCKHQDQ  Y1, Y0, Y5; \
	MAX(Y5, Y4, Y8); \
	VPUNPCKLQDQ  Y3, Y2, Y6; \
	VPUNPCKHQDQ  Y3, Y2, Y7; \
	MAX(Y7, Y6, Y8); \
	VPERM2I128   $0x20, Y6, Y4, Y5; \
	VPERM2I128   $0x31, Y6, Y4, Y7; \
	MAX(Y7, Y5, Y8); \
	VPSRLQ       $52, Y5, Y6; \
	VPXOR        Y8, Y8, Y8; \
	VPCMPEQQ     Y8, Y6, Y8; \
	VPCMPGTQ     Y13, Y6, Y7; \
	VPOR         Y7, Y8, Y8; \
	VPTEST       Y8, Y8; \
	JNZ          single; \
	VPSUBQ       Y6, Y14, Y7; \
	VPSLLQ       $52, Y7, Y7; \
	VPBROADCASTQ rescaleConst<>+24(SB), Y8; \
	VPADDQ       Y8, Y6, Y6; \
	VBROADCASTSD rescaleConst<>+32(SB), Y8; \
	VSUBPD       Y8, Y6, Y6; \
	VMULPD       Y15, Y6, Y6; \
	VMOVUPD      Y6, 0(SI); \
	VPERMQ       $0x00, Y7, Y9; \
	VPERMQ       $0x55, Y7, Y10; \
	VPERMQ       $0xaa, Y7, Y11; \
	VPERMQ       $0xff, Y7, Y12; \
	MOVQ         DI, AX; \
	MOVQ         R9, R10; \
apply4: \
	APPLY4; \
	ADDQ         R8, AX; \
	DECQ         R10; \
	JNZ          apply4; \
	ADDQ         $(16*ESIZE), DI; \
	ADDQ         $32, SI; \
	ADDQ         $4, R13; \
	JMP          block; \
single: \
	CMPQ         R13, CX; \
	JEQ          done; \
	VPXOR        Y0, Y0, Y0; \
	MOVQ         DI, AX; \
	MOVQ         R9, R10; \
max1: \
	LOAD1; \
	MAX(Y1, Y0, Y2); \
	ADDQ         R8, AX; \
	DECQ         R10; \
	JNZ          max1; \
	VEXTRACTI128 $1, Y0, X1; \
	MAX(X1, X0, X2); \
	VPSHUFD      $0x4e, X0, X1; \
	MAX(X1, X0, X2); \
	VMOVQ        X0, AX; \
	MOVQ         AX, BX; \
	SHRQ         $52, BX; \
	LEAQ         -1(BX), DX; \
	CMPQ         DX, $2044; \
	JAE          done; \
	MOVQ         $2045, DX; \
	SUBQ         BX, DX; \
	SHLQ         $52, DX; \
	VMOVQ        DX, X3; \
	VBROADCASTSD X3, Y3; \
	SUBQ         $1022, BX; \
	VCVTSI2SDQ   BX, X4, X4; \
	VMULSD       X15, X4, X4; \
	VMOVSD       X4, 0(SI); \
	MOVQ         DI, AX; \
	MOVQ         R9, R10; \
apply1: \
	APPLY1; \
	ADDQ         R8, AX; \
	DECQ         R10; \
	JNZ          apply1; \
	ADDQ         $(4*ESIZE), DI; \
	ADDQ         $8, SI; \
	INCQ         R13; \
	JMP          block; \
done: \
	VZEROUPPER; \
	MOVQ         R13, ret+64(FP); \
	RET

// func rescale4F64AVX2(col, scale []float64, stride, cats int) int
TEXT ·rescale4F64AVX2(SB), NOSPLIT, $0-72
	RESCALE(8, LOADF64, LOAD4F64, APPLY1F64, APPLY4F64)

// func rescale4F32AVX2(col []float32, scale []float64, stride, cats int) int
TEXT ·rescale4F32AVX2(SB), NOSPLIT, $0-72
	RESCALE(4, LOADF32, LOAD4F32, APPLY1F32, APPLY4F32)
