package kernels

// The 4-state kernels' unrolled Go bodies, for the external test package's
// benchmarks, which time the bound kernels against them.

func PartialsPartials4Go[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
	partialsPartials4Go(dest, p1, m1, p2, m2, d, lo, hi)
}

func StatesPartials4Go[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	statesPartials4Go(dest, s1, m1, p2, m2, d, lo, hi)
}

// statesPartials4Go is the reference StatesPartials4 is held to, one
// pattern at a time with no side table: column a of the tip's matrix times
// the partials child's sum, or the sum alone for a gap (any state outside
// [0, 4)).
func statesPartials4Go[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	for c := 0; c < d.CategoryCount; c++ {
		m := m1[c*16 : c*16+16]
		n := m2[c*16 : c*16+16]
		for p := lo; p < hi; p++ {
			o := (c*d.PatternCount + p) * 4
			b0, b1, b2, b3 := p2[o], p2[o+1], p2[o+2], p2[o+3]
			t0 := T(n[0]*b0) + T(n[1]*b1) + T(n[2]*b2) + T(n[3]*b3)
			t1 := T(n[4]*b0) + T(n[5]*b1) + T(n[6]*b2) + T(n[7]*b3)
			t2 := T(n[8]*b0) + T(n[9]*b1) + T(n[10]*b2) + T(n[11]*b3)
			t3 := T(n[12]*b0) + T(n[13]*b1) + T(n[14]*b2) + T(n[15]*b3)
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
