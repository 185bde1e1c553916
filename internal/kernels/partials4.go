package kernels

// Four-state specialized kernels: the analogue of BEAGLE's SSE code path,
// which vectorizes across the 4 nucleotide character states (§IV-D).
//
// PartialsPartials4 and StatesPartials4 run as AVX2 assembly on amd64 under
// the same CPUID gate as VecMatT, with the pattern loop inside the assembly.
// The lanes run across the four output states, so each lane performs the
// unrolled Go body's own sequence for its state,
//
//	((m0·a0 + m1·a1) + m2·a2) + m3·a3, times the other child's sum,
//
// with separate multiplies and adds (no fused multiply-add) — the same three
// decisions as the wide family's primitive, for the reasons the package
// comment gives. Per category both 4×4 matrices are transposed into scratch
// on the kernel call's stack, so a matrix column is one vector load; the
// compact-state child gets a fifth, all-ones column that a gap state (any
// value ≥ 4, clamped with an unsigned compare) selects without a branch.
// float64 takes one pattern per 256-bit register, float32 two (the columns
// broadcast to both 128-bit halves, each half's entries broadcast within it).
// An odd float32 tail pattern, a CPU without AVX2 and -tags purego run the
// unrolled Go bodies below, which compute the same results: every non-NaN
// output bit for bit, a NaN as a NaN.

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

// StatesPartials4 is StatesPartials specialized and unrolled for
// StateCount == 4.
//
//beagle:noalloc
func StatesPartials4[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	n := asmPatterns4[T](lo, hi)
	if n == 0 {
		statesPartials4Go(dest, s1, m1, p2, m2, d, lo, hi)
		return
	}
	// mt[:16] is m2 transposed, mt[16:32] m1 transposed — column s of m1 is
	// the factor of tip state s — and mt[32:] the gap column.
	mt := [36]T{32: 1, 33: 1, 34: 1, 35: 1}
	s := s1[lo : lo+n]
	for c := 0; c < d.CategoryCount; c++ {
		transpose4(mt[:16], m2[c*16:c*16+16])
		transpose4(mt[16:32], m1[c*16:c*16+16])
		o := (c*d.PatternCount + lo) * 4
		e := o + 4*n
		statesPartials4Asm(dest[o:e], s, p2[o:e], mt[:])
	}
	if lo+n < hi {
		statesPartials4Go(dest, s1, m1, p2, m2, d, lo+n, hi)
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
			dest[o] = (m[0]*a0 + m[1]*a1 + m[2]*a2 + m[3]*a3) *
				(n[0]*b0 + n[1]*b1 + n[2]*b2 + n[3]*b3)
			dest[o+1] = (m[4]*a0 + m[5]*a1 + m[6]*a2 + m[7]*a3) *
				(n[4]*b0 + n[5]*b1 + n[6]*b2 + n[7]*b3)
			dest[o+2] = (m[8]*a0 + m[9]*a1 + m[10]*a2 + m[11]*a3) *
				(n[8]*b0 + n[9]*b1 + n[10]*b2 + n[11]*b3)
			dest[o+3] = (m[12]*a0 + m[13]*a1 + m[14]*a2 + m[15]*a3) *
				(n[12]*b0 + n[13]*b1 + n[14]*b2 + n[15]*b3)
		}
	}
}

// statesPartials4Go is StatesPartials4's portable body and the reference its
// assembly is held to.
//
//beagle:noalloc
func statesPartials4Go[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	for c := 0; c < d.CategoryCount; c++ {
		m := m1[c*16 : c*16+16]
		n := m2[c*16 : c*16+16]
		for p := lo; p < hi; p++ {
			o := (c*d.PatternCount + p) * 4
			b0, b1, b2, b3 := p2[o], p2[o+1], p2[o+2], p2[o+3]
			t0 := n[0]*b0 + n[1]*b1 + n[2]*b2 + n[3]*b3
			t1 := n[4]*b0 + n[5]*b1 + n[6]*b2 + n[7]*b3
			t2 := n[8]*b0 + n[9]*b1 + n[10]*b2 + n[11]*b3
			t3 := n[12]*b0 + n[13]*b1 + n[14]*b2 + n[15]*b3
			st := int(s1[p])
			if st < 4 {
				dest[o] = m[st] * t0
				dest[o+1] = m[4+st] * t1
				dest[o+2] = m[8+st] * t2
				dest[o+3] = m[12+st] * t3
			} else {
				dest[o] = t0
				dest[o+1] = t1
				dest[o+2] = t2
				dest[o+3] = t3
			}
		}
	}
}

// StatesStates4 is StatesStates specialized and unrolled for
// StateCount == 4. It stays in Go: two table look-ups and a multiply per
// entry leave nothing to vectorise.
//
//beagle:noalloc
func StatesStates4[T Real](dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d Dims, lo, hi int) {
	for c := 0; c < d.CategoryCount; c++ {
		m := m1[c*16 : c*16+16]
		n := m2[c*16 : c*16+16]
		for p := lo; p < hi; p++ {
			o := (c*d.PatternCount + p) * 4
			sa := int(s1[p])
			sb := int(s2[p])
			var f0, f1, f2, f3 T = 1, 1, 1, 1
			if sa < 4 {
				f0, f1, f2, f3 = m[sa], m[4+sa], m[8+sa], m[12+sa]
			}
			var g0, g1, g2, g3 T = 1, 1, 1, 1
			if sb < 4 {
				g0, g1, g2, g3 = n[sb], n[4+sb], n[8+sb], n[12+sb]
			}
			dest[o] = f0 * g0
			dest[o+1] = f1 * g1
			dest[o+2] = f2 * g2
			dest[o+3] = f3 * g3
		}
	}
}
