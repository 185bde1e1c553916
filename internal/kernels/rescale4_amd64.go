//go:build amd64 && !purego

package kernels

// rescale4Asm runs RescalePartials' 4-state pattern loop in assembly from
// pattern lo and returns the pattern it stopped at: hi, or the first pattern
// pow2Scale declines, which it leaves untouched. d.CategoryCount must be at
// least 1; the slices are cut here to all the assembly reads and writes.
//
//beagle:noalloc
func rescale4Asm[T Real](partials []T, scale []float64, d Dims, lo, hi int) int {
	stride := d.PatternCount * 4
	col := partials[lo*4 : (d.CategoryCount-1)*stride+hi*4]
	switch c := any(col).(type) { //beagle:allow noalloc the boxed slice header never leaves this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		return lo + rescale4F64AVX2(c, scale[lo:hi], stride, d.CategoryCount)
	case []float32:
		return lo + rescale4F32AVX2(c, scale[lo:hi], stride, d.CategoryCount)
	}
	return lo
}

// rescale4F64AVX2 requires cats ≥ 1 and
// len(col) ≥ (cats-1)·stride + 4·len(scale).
//
//beagle:noalloc
//go:noescape
func rescale4F64AVX2(col, scale []float64, stride, cats int) int

// rescale4F32AVX2 requires cats ≥ 1 and
// len(col) ≥ (cats-1)·stride + 4·len(scale).
//
//beagle:noalloc
//go:noescape
func rescale4F32AVX2(col []float32, scale []float64, stride, cats int) int
