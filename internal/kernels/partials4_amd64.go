//go:build amd64 && !purego

package kernels

// partialsPartials4Asm runs one category of PartialsPartials4 over a pattern
// span in assembly. The caller has cut dest, p1 and p2 to the span (4 entries
// a pattern, an even count in float32) and filled mt with both matrices
// transposed; the assembly reads and writes nothing else.
//
//beagle:noalloc
func partialsPartials4Asm[T Real](dest, p1, p2, mt []T) {
	switch dst := any(dest).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		partialsPartials4F64AVX2(dst, any(p1).([]float64), any(p2).([]float64), any(mt).([]float64)) //beagle:allow noalloc as above
	case []float32:
		partialsPartials4F32AVX2(dst, any(p1).([]float32), any(p2).([]float32), any(mt).([]float32)) //beagle:allow noalloc as above
	}
}

// statesPartials4Asm is partialsPartials4Asm for StatesPartials4: s holds the
// span's tip states and mt the partials child's matrix transposed, then the
// states child's columns and the gap column.
//
//beagle:noalloc
func statesPartials4Asm[T Real](dest []T, s []int32, p2, mt []T) {
	switch dst := any(dest).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		statesPartials4F64AVX2(dst, s, any(p2).([]float64), any(mt).([]float64)) //beagle:allow noalloc as above
	case []float32:
		statesPartials4F32AVX2(dst, s, any(p2).([]float32), any(mt).([]float32)) //beagle:allow noalloc as above
	}
}

// partialsPartials4F64AVX2 requires len(p1), len(p2) ≥ len(dest),
// len(dest)%4 == 0 and len(mt) ≥ 32.
//
//beagle:noalloc
//go:noescape
func partialsPartials4F64AVX2(dest, p1, p2, mt []float64)

// partialsPartials4F32AVX2 requires len(p1), len(p2) ≥ len(dest),
// len(dest)%8 == 0 and len(mt) ≥ 32.
//
//beagle:noalloc
//go:noescape
func partialsPartials4F32AVX2(dest, p1, p2, mt []float32)

// statesPartials4F64AVX2 requires len(p2) ≥ len(dest), len(dest)%4 == 0,
// len(s) ≥ len(dest)/4 and len(mt) ≥ 36.
//
//beagle:noalloc
//go:noescape
func statesPartials4F64AVX2(dest []float64, s []int32, p2, mt []float64)

// statesPartials4F32AVX2 requires len(p2) ≥ len(dest), len(dest)%8 == 0,
// len(s) ≥ len(dest)/4 and len(mt) ≥ 36.
//
//beagle:noalloc
//go:noescape
func statesPartials4F32AVX2(dest []float32, s []int32, p2, mt []float32)
