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

// gatherGather4Asm runs one category of GatherGather4 over a pattern span in
// assembly and reports whether it did: dest is cut to the span, g1 and g2
// hold its class ids and t1, t2 the category's side tables.
//
//beagle:noalloc
func gatherGather4Asm[T Real](dest []T, g1 []int32, t1 []T, g2 []int32, t2 []T) bool {
	if !vecMatAccelerated {
		return false
	}
	switch dst := any(dest).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		gatherGather4F64AVX2(dst, g1, any(t1).([]float64), g2, any(t2).([]float64)) //beagle:allow noalloc as above
	case []float32:
		gatherGather4F32AVX2(dst, g1, any(t1).([]float32), g2, any(t2).([]float32)) //beagle:allow noalloc as above
	}
	return true
}

// gatherPartials4Asm is statesPartials4Asm for GatherPartials4: g holds the
// span's class ids, t1 the compact child's side table for the category and
// mt the partials child's matrix transposed.
//
//beagle:noalloc
func gatherPartials4Asm[T Real](dest []T, g []int32, t1, p2, mt []T) {
	switch dst := any(dest).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		gatherPartials4F64AVX2(dst, g, any(t1).([]float64), any(p2).([]float64), any(mt).([]float64)) //beagle:allow noalloc as above
	case []float32:
		gatherPartials4F32AVX2(dst, g, any(t1).([]float32), any(p2).([]float32), any(mt).([]float32)) //beagle:allow noalloc as above
	}
}

// gatherGather4F64AVX2 requires len(g1), len(g2) ≥ len(dest)/4 and every id
// below its table's row count.
//
//beagle:noalloc
//go:noescape
func gatherGather4F64AVX2(dest []float64, g1 []int32, t1 []float64, g2 []int32, t2 []float64)

// gatherGather4F32AVX2 is gatherGather4F64AVX2 in float32.
//
//beagle:noalloc
//go:noescape
func gatherGather4F32AVX2(dest []float32, g1 []int32, t1 []float32, g2 []int32, t2 []float32)

// gatherPartials4F64AVX2 requires len(p2) ≥ len(dest), len(dest)%4 == 0,
// len(g) ≥ len(dest)/4, every id below t1's row count and len(mt) ≥ 16.
//
//beagle:noalloc
//go:noescape
func gatherPartials4F64AVX2(dest []float64, g []int32, t1, p2, mt []float64)

// gatherPartials4F32AVX2 requires len(p2) ≥ len(dest), len(dest)%8 == 0,
// len(g) ≥ len(dest)/4, every id below t1's row count and len(mt) ≥ 16.
//
//beagle:noalloc
//go:noescape
func gatherPartials4F32AVX2(dest []float32, g []int32, t1, p2, mt []float32)

// sideRows4Asm runs one category of SideRows4 over whole rows in assembly:
// out and tab are cut to them (an even count in float32) and mt holds the
// category's matrix transposed.
//
//beagle:noalloc
func sideRows4Asm[T Real](out, tab, mt []T) {
	switch dst := any(out).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		sideRows4F64AVX2(dst, any(tab).([]float64), any(mt).([]float64)) //beagle:allow noalloc as above
	case []float32:
		sideRows4F32AVX2(dst, any(tab).([]float32), any(mt).([]float32)) //beagle:allow noalloc as above
	}
}

// classTable4Asm runs one category of ClassTable4 in assembly and reports
// whether it did: tab, s1 and s2 are cut to the category's rows.
//
//beagle:noalloc
func classTable4Asm[T Real](tab, s1, s2 []T) bool {
	if !vecMatAccelerated {
		return false
	}
	switch dst := any(tab).(type) { //beagle:allow noalloc the boxed slice headers never leave this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		classTable4F64AVX2(dst, any(s1).([]float64), any(s2).([]float64)) //beagle:allow noalloc as above
	case []float32:
		classTable4F32AVX2(dst, any(s1).([]float32), any(s2).([]float32)) //beagle:allow noalloc as above
	}
	return true
}

// sideRows4F64AVX2 requires len(tab) ≥ len(out), len(out)%4 == 0 and
// len(mt) ≥ 16.
//
//beagle:noalloc
//go:noescape
func sideRows4F64AVX2(out, tab, mt []float64)

// sideRows4F32AVX2 requires len(tab) ≥ len(out), len(out)%8 == 0 and
// len(mt) ≥ 16.
//
//beagle:noalloc
//go:noescape
func sideRows4F32AVX2(out, tab, mt []float32)

// classTable4F64AVX2 requires len(tab) ≥ len(s1)·len(s2)/4 and len(s1),
// len(s2) multiples of 4.
//
//beagle:noalloc
//go:noescape
func classTable4F64AVX2(tab, s1, s2 []float64)

// classTable4F32AVX2 is classTable4F64AVX2 in float32.
//
//beagle:noalloc
//go:noescape
func classTable4F32AVX2(tab, s1, s2 []float32)
