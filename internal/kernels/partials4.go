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
// state outside [0, 4), clamped with an unsigned compare) selects without a
// branch.
// float64 takes one pattern per 256-bit register, float32 two (the columns
// broadcast to both 128-bit halves, each half's entries broadcast within it).
// An odd float32 tail pattern, a CPU without AVX2 and -tags purego run the
// unrolled Go bodies below, which compute the same results: every non-NaN
// output bit for bit, a NaN as a NaN.
//
// StatesStates4 needs no assembly: with both children compact states, a
// category has 25 distinct destination rows, so it builds them once and
// copies one per pattern.
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
			if st := s1[p]; uint32(st) < 4 {
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

// StatesStates4 is StatesStates specialized for StateCount == 4, as a
// product table. Both children are compact states, so a category has only
// 5 × 5 distinct destination rows, tab[a·5+b][i] = f_a[i]·g_b[i]: f_a is
// column a of m1, g_b column b of m2, and index 4 — the gap — is a column of
// ones. These are the generic kernel's own products in its operand order, a
// gap's factor 1 included, so the results are its bits. Each pattern then
// clamps both states to the gap with an unsigned compare (any state outside
// [0, 4) is a gap, as in every compact-state kernel) and copies one row,
// with no arithmetic. Categories are the outer loop, so one category's table
// stays in the first-level cache while the patterns stream past it.
//
//beagle:noalloc
func StatesStates4[T Real](dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d Dims, lo, hi int) {
	if hi <= lo {
		return
	}
	var tab [32][4]T // rows 25–31 are never read: tableRow4's &31 only drops a bounds check
	s1, s2 = s1[lo:hi], s2[lo:hi]
	for c := 0; c < d.CategoryCount; c++ {
		productTable4(&tab, m1[c*16:c*16+16], m2[c*16:c*16+16])
		o := (c*d.PatternCount + lo) * 4
		copyRows4(dest[o:o+4*len(s1)], s1, s2, &tab)
	}
}

// copyRows4 writes StatesStates4's table row for each pattern of s1 and s2
// into out, four patterns to a block so that a block is bounds-checked once.
// It is a function of its own so that the loop's few values stay in
// registers.
//
//beagle:noalloc
func copyRows4[T Real](out []T, s1, s2 []int32, tab *[32][4]T) {
	s2 = s2[:len(s1)]
	for len(s1) >= 4 && len(s2) >= 4 && len(out) >= 16 {
		blk := (*[16]T)(out)
		*(*[4]T)(blk[0:4]) = tab[tableRow4(s1[0], s2[0])]
		*(*[4]T)(blk[4:8]) = tab[tableRow4(s1[1], s2[1])]
		*(*[4]T)(blk[8:12]) = tab[tableRow4(s1[2], s2[2])]
		*(*[4]T)(blk[12:16]) = tab[tableRow4(s1[3], s2[3])]
		s1, s2, out = s1[4:], s2[4:], out[16:]
	}
	for i := range s1 {
		*(*[4]T)(out[4*i : 4*i+4]) = tab[tableRow4(s1[i], s2[i])]
	}
}

// tableRow4 is the row of StatesStates4's table for tip states a and b.
//
//beagle:noalloc
func tableRow4(a, b int32) uint32 {
	return (min(uint32(a), 4)*5 + min(uint32(b), 4)) & 31
}

// productTable4 fills rows 0–24 of tab with StatesStates4's products for one
// category's matrices m and n: row a·5+b is column a of m times column b of
// n, entrywise, where column 4 of either is all ones.
//
//beagle:noalloc
func productTable4[T Real](tab *[32][4]T, m, n []T) {
	m, n = m[:16], n[:16]
	for a := 0; a < 5; a++ {
		f := [4]T{1, 1, 1, 1}
		if a < 4 {
			f = [4]T{m[a], m[4+a], m[8+a], m[12+a]}
		}
		for b := 0; b < 5; b++ {
			g := [4]T{1, 1, 1, 1}
			if b < 4 {
				g = [4]T{n[b], n[4+b], n[8+b], n[12+b]}
			}
			tab[a*5+b] = [4]T{f[0] * g[0], f[1] * g[1], f[2] * g[2], f[3] * g[3]}
		}
	}
}
