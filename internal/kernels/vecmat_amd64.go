//go:build amd64 && !purego

package kernels

// vecMatAccelerated reports whether VecMatT runs as AVX2 assembly on this
// CPU: the instruction set must be present and the OS must save YMM state.
var vecMatAccelerated = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX: XGETBV usable, OS manages extended state
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		xmmYmm  = 0b110   // XCR0: SSE and AVX state enabled by the OS
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// vecMatTAsm runs VecMatT's loop in assembly when it can, and reports
// whether it did. The caller has already cut the slices to the geometry
// (len(acc) = stride, len(v) = n, len(mt) = n·stride), which is all the
// assembly reads and writes.
//
//beagle:noalloc
func vecMatTAsm[T Real](acc, mt, v []T) bool {
	if !vecMatAccelerated || len(v) == 0 || len(acc)%lanes[T]() != 0 {
		return false
	}
	switch a := any(acc).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestVecMatTAllocatesNothing holds it to zero
	case []float64:
		vecMatT64AVX2(a, any(mt).([]float64), any(v).([]float64)) //beagle:allow noalloc as above
	case []float32:
		vecMatT32AVX2(a, any(mt).([]float32), any(v).([]float32)) //beagle:allow noalloc as above
	default:
		return false
	}
	return true
}

// vecMatT64AVX2 requires len(acc)%4 == 0, len(v) ≥ 1 and
// len(mt) ≥ len(v)·len(acc).
//
//beagle:noalloc
//go:noescape
func vecMatT64AVX2(acc, mt, v []float64)

// vecMatT32AVX2 requires len(acc)%8 == 0, len(v) ≥ 1 and
// len(mt) ≥ len(v)·len(acc).
//
//beagle:noalloc
//go:noescape
func vecMatT32AVX2(acc, mt, v []float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of extended control register 0.
func xgetbv0() uint32
