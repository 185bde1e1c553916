//go:build amd64 && !purego

#include "textflag.h"

// The root integration at four states, and the per-pattern log.
//
// SiteLikelihoods runs lanes across four patterns. A block's four patterns
// are four consecutive rows of a category; transposed (as transpose4 does),
// vector j holds state j of the four patterns, and each lane computes
//
//	cat = (((0 + f0·v0) + f1·v1) + f2·v2) + f3·v3,   site += w_c·cat
//
// for its pattern, categories in order: the Go body's operations in its
// order, one rounding per multiply and per add (no fused multiply-add), and
// float32 entries widened exactly by VCVTPS2PD, so the bits are its bits.
//
//	DI out cursor   SI block cursor (category 0)   CX blocks left
//	R8 category stride, in bytes   R9 weights   R10 categories
//	AX category cursor   BX weight cursor   R11 categories left
//	Y12–Y15 f0–f3 broadcast

// LOAD4F64 and LOAD4F32 put the block's four patterns of the category at
// (AX) in Y4–Y7, one pattern a register, widened to float64.
#define LOAD4F64 \
	VMOVUPD 0(AX), Y4; \
	VMOVUPD 32(AX), Y5; \
	VMOVUPD 64(AX), Y6; \
	VMOVUPD 96(AX), Y7

#define LOAD4F32 \
	VCVTPS2PD 0(AX), Y4; \
	VCVTPS2PD 16(AX), Y5; \
	VCVTPS2PD 32(AX), Y6; \
	VCVTPS2PD 48(AX), Y7

// SITES is the loop for one precision, ESIZE bytes an entry.
#define SITES(ESIZE, LOAD4) \
	MOVQ         out_base+0(FP), DI; \
	MOVQ         out_len+8(FP), CX; \
	MOVQ         root_base+24(FP), SI; \
	MOVQ         w_base+48(FP), R9; \
	MOVQ         w_len+56(FP), R10; \
	MOVQ         freqs_base+72(FP), DX; \
	MOVQ         stride+96(FP), R8; \
	IMULQ        $ESIZE, R8; \
	SHRQ         $2, CX; \
	JZ           done; \
	VBROADCASTSD 0(DX), Y12; \
	VBROADCASTSD 8(DX), Y13; \
	VBROADCASTSD 16(DX), Y14; \
	VBROADCASTSD 24(DX), Y15; \
block: \
	VXORPD       Y0, Y0, Y0; \
	VXORPD       Y3, Y3, Y3; \
	MOVQ         SI, AX; \
	MOVQ         R9, BX; \
	MOVQ         R10, R11; \
cat: \
	LOAD4; \
	VUNPCKLPD    Y5, Y4, Y8; \
	VUNPCKHPD    Y5, Y4, Y9; \
	VUNPCKLPD    Y7, Y6, Y10; \
	VUNPCKHPD    Y7, Y6, Y11; \
	VPERM2F128   $0x20, Y10, Y8, Y4; \
	VPERM2F128   $0x20, Y11, Y9, Y5; \
	VPERM2F128   $0x31, Y10, Y8, Y6; \
	VPERM2F128   $0x31, Y11, Y9, Y7; \
	VMULPD       Y12, Y4, Y1; \
	VADDPD       Y1, Y3, Y1; \
	VMULPD       Y13, Y5, Y2; \
	VADDPD       Y2, Y1, Y1; \
	VMULPD       Y14, Y6, Y2; \
	VADDPD       Y2, Y1, Y1; \
	VMULPD       Y15, Y7, Y2; \
	VADDPD       Y2, Y1, Y1; \
	VBROADCASTSD 0(BX), Y2; \
	VMULPD       Y1, Y2, Y1; \
	VADDPD       Y1, Y0, Y0; \
	ADDQ         R8, AX; \
	ADDQ         $8, BX; \
	DECQ         R11; \
	JNZ          cat; \
	VMOVUPD      Y0, 0(DI); \
	ADDQ         $32, DI; \
	ADDQ         $(16*ESIZE), SI; \
	DECQ         CX; \
	JNZ          block; \
	VZEROUPPER; \
done: \
	RET

// func siteLikelihoods4F64AVX2(out, root, w, freqs []float64, stride int)
TEXT ·siteLikelihoods4F64AVX2(SB), NOSPLIT, $0-104
	SITES(8, LOAD4F64)

// func siteLikelihoods4F32AVX2(out []float64, root []float32, w, freqs []float64, stride int)
TEXT ·siteLikelihoods4F32AVX2(SB), NOSPLIT, $0-104
	SITES(4, LOAD4F32)

// The log is Go's math/log_amd64.s (archLog, math.Log on amd64) across four
// lanes, operation for operation: the fraction and exponent cut from the
// bits by masks, the exponent converted exactly (2^52 + e, less
// 2^52 + 1022, for CVTSL2SD's e − 1022), cmpnlt against √2/2, then the same
// divide, polynomial and final sum in the same order, each a separate
// VMULPD, VADDPD, VSUBPD or VDIVPD. Where archLog branches to a special
// case, the lanes blend its result in: x for +Inf and NaNs with the sign
// bit clear, the NaN 0x7FF8000000000001 for the sign bit set, −Inf for ±0
// (last, as −0 also has the sign bit set). Every lane then holds archLog's
// bits.
//
//	DI out cursor   SI site cursor   DX scale cursor   CX blocks left
//	Y15 0x000FFFFFFFFFFFFF   Y14 0x7FF   Y13 2^52   Y12 2^52 + 1022
//	Y11 √2/2   Y10 1   Y9 0x7FFFFFFFFFFFFFFF   Y8 0x7FEFFFFFFFFFFFFF

DATA logConst<>+0(SB)/8, $0x000FFFFFFFFFFFFF
DATA logConst<>+8(SB)/8, $0x7FF
DATA logConst<>+16(SB)/8, $0x4330000000000000   // 2^52
DATA logConst<>+24(SB)/8, $0x43300000000003FE   // 2^52 + 1022
DATA logConst<>+32(SB)/8, $0x3FE6A09E667F3BCD   // √2/2
DATA logConst<>+40(SB)/8, $0x3FF0000000000000   // 1
DATA logConst<>+48(SB)/8, $0x7FFFFFFFFFFFFFFF   // all but the sign
DATA logConst<>+56(SB)/8, $0x7FEFFFFFFFFFFFFF   // +Inf − 1 ulp
DATA logConst<>+64(SB)/8, $0x3FE0000000000000   // 0.5
DATA logConst<>+72(SB)/8, $0x4000000000000000   // 2
DATA logConst<>+80(SB)/8, $0x3FE5555555555593   // L1
DATA logConst<>+88(SB)/8, $0x3FD999999997FA04   // L2
DATA logConst<>+96(SB)/8, $0x3FD2492494229359   // L3
DATA logConst<>+104(SB)/8, $0x3FCC71C51D8E78AF  // L4
DATA logConst<>+112(SB)/8, $0x3FC7466496CB03DE  // L5
DATA logConst<>+120(SB)/8, $0x3FC39A09D078C69F  // L6
DATA logConst<>+128(SB)/8, $0x3FC2F112DF3E5244  // L7
DATA logConst<>+136(SB)/8, $0x3FE62E42FEE00000  // Ln2Hi
DATA logConst<>+144(SB)/8, $0x3DEA39EF35793C76  // Ln2Lo
DATA logConst<>+152(SB)/8, $0x7FF8000000000001  // archLog's NaN
DATA logConst<>+160(SB)/8, $0xFFF0000000000000  // −Inf
GLOBL logConst<>(SB), RODATA|NOPTR, $168

#define LOGC(off, reg) VBROADCASTSD logConst<>+off(SB), reg

// LOG4 leaves in Y0 the log of the four lanes of Y7, clobbering Y1–Y6, in
// archLog's steps: f1 = frac | 0.5 in Y2 and k = float64(e) − 1022 in Y1;
// the cmpnlt mask in Y0, whose 0 or 1 is taken from k and whose 1 or 2
// multiplies f1; f = f1 − 1 in Y2; s = f / (2 + f) in Y3, s2 in Y4, s4 in
// Y5; t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))) into Y4 and
// t2 = s4·(L2 + s4·(L4 + s4·L6)) into Y5, built in Y6; R = t1 + t2 in Y4;
// hfsq = 0.5·f·f in Y0; k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
// into Y0; then the three special cases, blended in.
#define LOG4 \
	VANDPD       Y15, Y7, Y2; \
	LOGC(64, Y0); \
	VORPD        Y0, Y2, Y2; \
	VPSRLQ       $52, Y7, Y1; \
	VPAND        Y14, Y1, Y1; \
	VPOR         Y13, Y1, Y1; \
	VSUBPD       Y12, Y1, Y1; \
	VCMPPD       $5, Y2, Y11, Y0; \
	VANDPD       Y10, Y0, Y3; \
	VSUBPD       Y3, Y1, Y1; \
	VADDPD       Y10, Y3, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VSUBPD       Y10, Y2, Y2; \
	LOGC(72, Y0); \
	VADDPD       Y2, Y0, Y0; \
	VDIVPD       Y0, Y2, Y3; \
	VMULPD       Y3, Y3, Y4; \
	VMULPD       Y4, Y4, Y5; \
	LOGC(128, Y6); \
	VMULPD       Y5, Y6, Y6; \
	LOGC(112, Y0); \
	VADDPD       Y0, Y6, Y6; \
	VMULPD       Y5, Y6, Y6; \
	LOGC(96, Y0); \
	VADDPD       Y0, Y6, Y6; \
	VMULPD       Y5, Y6, Y6; \
	LOGC(80, Y0); \
	VADDPD       Y0, Y6, Y6; \
	VMULPD       Y6, Y4, Y4; \
	LOGC(120, Y6); \
	VMULPD       Y5, Y6, Y6; \
	LOGC(104, Y0); \
	VADDPD       Y0, Y6, Y6; \
	VMULPD       Y5, Y6, Y6; \
	LOGC(88, Y0); \
	VADDPD       Y0, Y6, Y6; \
	VMULPD       Y6, Y5, Y5; \
	VADDPD       Y5, Y4, Y4; \
	LOGC(64, Y0); \
	VMULPD       Y2, Y0, Y0; \
	VMULPD       Y2, Y0, Y0; \
	VADDPD       Y0, Y4, Y4; \
	VMULPD       Y4, Y3, Y3; \
	LOGC(144, Y4); \
	VMULPD       Y1, Y4, Y4; \
	VADDPD       Y4, Y3, Y3; \
	VSUBPD       Y3, Y0, Y0; \
	VSUBPD       Y2, Y0, Y0; \
	LOGC(136, Y4); \
	VMULPD       Y4, Y1, Y1; \
	VSUBPD       Y0, Y1, Y0; \
	VPCMPGTQ     Y8, Y7, Y1; \
	VBLENDVPD    Y1, Y7, Y0, Y0; \
	VPXOR        Y2, Y2, Y2; \
	VPCMPGTQ     Y7, Y2, Y1; \
	LOGC(152, Y3); \
	VBLENDVPD    Y1, Y3, Y0, Y0; \
	VPAND        Y9, Y7, Y1; \
	VPCMPEQQ     Y2, Y1, Y1; \
	LOGC(160, Y3); \
	VBLENDVPD    Y1, Y3, Y0, Y0

#define NOSCALE
#define ADDSCALE \
	VADDPD 0(DX), Y0, Y0; \
	ADDQ   $32, DX

// LOGSITES is the loop, SCALE adding the scale factors or not.
#define LOGSITES(SCALE) \
	MOVQ         out_base+0(FP), DI; \
	MOVQ         out_len+8(FP), CX; \
	MOVQ         site_base+24(FP), SI; \
	SHRQ         $2, CX; \
	JZ           done; \
	LOGC(0, Y15); \
	VPBROADCASTQ logConst<>+8(SB), Y14; \
	LOGC(16, Y13); \
	LOGC(24, Y12); \
	LOGC(32, Y11); \
	LOGC(40, Y10); \
	LOGC(48, Y9); \
	LOGC(56, Y8); \
loop: \
	VMOVUPD      0(SI), Y7; \
	LOG4; \
	SCALE; \
	VMOVUPD      Y0, 0(DI); \
	ADDQ         $32, SI; \
	ADDQ         $32, DI; \
	DECQ         CX; \
	JNZ          loop; \
	VZEROUPPER; \
done: \
	RET

// func logSitesAVX2(out, site []float64)
TEXT ·logSitesAVX2(SB), NOSPLIT, $0-48
	LOGSITES(NOSCALE)

// func logSitesScaledAVX2(out, site, scale []float64)
TEXT ·logSitesScaledAVX2(SB), NOSPLIT, $0-72
	MOVQ scale_base+48(FP), DX
	LOGSITES(ADDSCALE)
