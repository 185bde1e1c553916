package kernels

// Four-state specialized kernels: the analogue of BEAGLE's SSE code path,
// which vectorizes across the 4 nucleotide character states (§IV-D).
//
// PartialsPartials4 runs as AVX2 assembly on amd64 under the same CPUID
// gate as VecMatT, with the pattern loop inside the assembly. The lanes run
// across the four output states, so each lane performs the unrolled Go
// body's own sequence for its state,
//
//	((m0·a0 + m1·a1) + m2·a2) + m3·a3, times the other child's sum,
//
// with separate multiplies and adds (no fused multiply-add) — the same three
// decisions as the wide family's primitive, for the reasons the package
// comment gives. Per category both 4×4 matrices are transposed into scratch
// on the kernel call's stack, so a matrix column is one vector load.
// float64 takes one pattern per 256-bit register, float32 two (the columns
// broadcast to both 128-bit halves, each half's entries broadcast within it).
// An odd float32 tail pattern, a CPU without AVX2 and -tags purego run the
// unrolled Go body below, which computes the same results: every non-NaN
// output bit for bit, a NaN as a NaN. Every product there is rounded before
// it is added, so no architecture fuses it.
//
// A compact-state tip needs no kernel of its own: it is a compact node of
// five classes (compact4.go) — its states are the class ids, and its side
// table through matrix M is column a of M for state a and ones for the gap —
// so StatesPartials4 is GatherPartials4 and StatesStates4 is GatherGather4
// over the tips' side tables, built per category on the stack. A gap's
// factor is 1 and 1·x is x, so these are the unrolled and generic kernels'
// bits. An engine that keeps compact subtrees gathers its tips the same way
// through its own side tables, so it runs neither wrapper.
//
// The other 4-state paths live beside their generic kernels: RescalePartials
// runs its pattern loop in AVX2 assembly under the same gate
// (rescale4_amd64.s), and UpdateTransitionMatrix has an unrolled Go body
// (matrices.go).

// PartialsPartials4 is PartialsPartials specialized and unrolled for
// StateCount == 4.
//
//beagle:noalloc
func PartialsPartials4[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
	n := asmPatterns4[T](lo, hi)
	if n == 0 {
		partialsPartials4Go(dest, p1, m1, p2, m2, d, lo, hi)
		return
	}
	var mt [32]T
	for c := 0; c < d.CategoryCount; c++ {
		transpose4(mt[:16], m1[c*16:c*16+16])
		transpose4(mt[16:], m2[c*16:c*16+16])
		o := (c*d.PatternCount + lo) * 4
		e := o + 4*n
		partialsPartials4Asm(dest[o:e], p1[o:e], p2[o:e], mt[:])
	}
	if lo+n < hi {
		partialsPartials4Go(dest, p1, m1, p2, m2, d, lo+n, hi)
	}
}

// StatesPartials4 is StatesPartials specialized for StateCount == 4: a
// compact-state tip is a compact node of five classes, its states the class
// ids, so this is GatherPartials4 over the tip's side table (TipSide4), a
// block of clamped states at a time and one category's table at a time, both
// on the stack.
//
//beagle:noalloc
func StatesPartials4[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	var ids [256]int32
	var side [20]T
	for b := lo; b < hi; b += len(ids) {
		n := min(hi-b, len(ids))
		clampStates4(ids[:n], s1[b:b+n])
		for c := 0; c < d.CategoryCount; c++ {
			TipSide4(side[:], m1[c*16:c*16+16], 1)
			o := (c*d.PatternCount + b) * 4
			GatherPartials4(dest[o:o+4*n], ids[:n], side[:], 5, p2[o:o+4*n], m2[c*16:c*16+16],
				Dims{StateCount: 4, PatternCount: n, CategoryCount: 1}, 0, n)
		}
	}
}

// StatesStates4 is StatesStates specialized for StateCount == 4: both
// children are compact-state tips, so it is GatherGather4 over their two
// side tables, as StatesPartials4 gathers one. A gap's factor is 1, and 1·x
// is x, so the results are the generic kernel's bits.
//
//beagle:noalloc
func StatesStates4[T Real](dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d Dims, lo, hi int) {
	var ids1, ids2 [256]int32
	var side1, side2 [20]T
	for b := lo; b < hi; b += len(ids1) {
		n := min(hi-b, len(ids1))
		clampStates4(ids1[:n], s1[b:b+n])
		clampStates4(ids2[:n], s2[b:b+n])
		for c := 0; c < d.CategoryCount; c++ {
			TipSide4(side1[:], m1[c*16:c*16+16], 1)
			TipSide4(side2[:], m2[c*16:c*16+16], 1)
			o := (c*d.PatternCount + b) * 4
			GatherGather4(dest[o:o+4*n], ids1[:n], side1[:], 5, ids2[:n], side2[:], 5,
				Dims{StateCount: 4, PatternCount: n, CategoryCount: 1}, 0, n)
		}
	}
}

// clampStates4 writes a tip's states into ids as ids of its side table: a
// state in [0, 4) is its own row, and any other is 4, the gap. The gather
// bodies read a table at an id unchecked, so every id they get from a tip
// passes through here.
//
//beagle:noalloc
func clampStates4(ids, states []int32) {
	states = states[:len(ids)]
	for i, s := range states {
		ids[i] = int32(min(uint32(s), 4))
	}
}

// asmPatterns4 returns how many patterns of [lo, hi), from lo, the 4-state
// assembly takes: none without it, all of them in float64, and an even count
// in float32, which packs two patterns per register.
//
//beagle:noalloc
func asmPatterns4[T Real](lo, hi int) int {
	if !vecMatAccelerated || hi <= lo {
		return 0
	}
	return (hi - lo) &^ (lanes[T]()/4 - 1)
}

// transpose4 writes the 4×4 row-major matrix m into t transposed.
//
//beagle:noalloc
func transpose4[T Real](t, m []T) {
	t, m = t[:16], m[:16]
	t[0], t[1], t[2], t[3] = m[0], m[4], m[8], m[12]
	t[4], t[5], t[6], t[7] = m[1], m[5], m[9], m[13]
	t[8], t[9], t[10], t[11] = m[2], m[6], m[10], m[14]
	t[12], t[13], t[14], t[15] = m[3], m[7], m[11], m[15]
}

// partialsPartials4Go is PartialsPartials4's portable body and the reference
// its assembly is held to.
//
//beagle:noalloc
func partialsPartials4Go[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
	for c := 0; c < d.CategoryCount; c++ {
		m := m1[c*16 : c*16+16]
		n := m2[c*16 : c*16+16]
		for p := lo; p < hi; p++ {
			o := (c*d.PatternCount + p) * 4
			a0, a1, a2, a3 := p1[o], p1[o+1], p1[o+2], p1[o+3]
			b0, b1, b2, b3 := p2[o], p2[o+1], p2[o+2], p2[o+3]
			dest[o] = (T(m[0]*a0) + T(m[1]*a1) + T(m[2]*a2) + T(m[3]*a3)) *
				(T(n[0]*b0) + T(n[1]*b1) + T(n[2]*b2) + T(n[3]*b3))
			dest[o+1] = (T(m[4]*a0) + T(m[5]*a1) + T(m[6]*a2) + T(m[7]*a3)) *
				(T(n[4]*b0) + T(n[5]*b1) + T(n[6]*b2) + T(n[7]*b3))
			dest[o+2] = (T(m[8]*a0) + T(m[9]*a1) + T(m[10]*a2) + T(m[11]*a3)) *
				(T(n[8]*b0) + T(n[9]*b1) + T(n[10]*b2) + T(n[11]*b3))
			dest[o+3] = (T(m[12]*a0) + T(m[13]*a1) + T(m[14]*a2) + T(m[15]*a3)) *
				(T(n[12]*b0) + T(n[13]*b1) + T(n[14]*b2) + T(n[15]*b3))
		}
	}
}
