package kernels

// PartialsPartials computes destination partials for patterns [lo, hi) from
// two child partials buffers and their transition matrices. This is the
// x86-style kernel: each (category, pattern) iteration loops over the full
// state space (§VII-B2).
//
//beagle:noalloc
func PartialsPartials[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
	s := d.StateCount
	for c := 0; c < d.CategoryCount; c++ {
		mOff := c * s * s
		for p := lo; p < hi; p++ {
			pOff := (c*d.PatternCount + p) * s
			v1 := p1[pOff : pOff+s]
			v2 := p2[pOff : pOff+s]
			out := dest[pOff : pOff+s]
			for i := 0; i < s; i++ {
				row1 := m1[mOff+i*s : mOff+(i+1)*s]
				row2 := m2[mOff+i*s : mOff+(i+1)*s]
				var sum1, sum2 T
				for j := 0; j < s; j++ {
					sum1 += row1[j] * v1[j]
					sum2 += row2[j] * v2[j]
				}
				out[i] = sum1 * sum2
			}
		}
	}
}

// StatesPartials computes destination partials when the first child is a
// compact-state tip and the second holds partials.
//
//beagle:noalloc
func StatesPartials[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	s := d.StateCount
	for c := 0; c < d.CategoryCount; c++ {
		mOff := c * s * s
		for p := lo; p < hi; p++ {
			pOff := (c*d.PatternCount + p) * s
			state1 := int(s1[p])
			v2 := p2[pOff : pOff+s]
			out := dest[pOff : pOff+s]
			for i := 0; i < s; i++ {
				var f1 T = 1
				if uint(state1) < uint(s) {
					f1 = m1[mOff+i*s+state1]
				}
				row2 := m2[mOff+i*s : mOff+(i+1)*s]
				var sum2 T
				for j := 0; j < s; j++ {
					sum2 += row2[j] * v2[j]
				}
				out[i] = f1 * sum2
			}
		}
	}
}

// StatesStates computes destination partials when both children are
// compact-state tips.
//
//beagle:noalloc
func StatesStates[T Real](dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d Dims, lo, hi int) {
	s := d.StateCount
	for c := 0; c < d.CategoryCount; c++ {
		mOff := c * s * s
		for p := lo; p < hi; p++ {
			pOff := (c*d.PatternCount + p) * s
			state1 := int(s1[p])
			state2 := int(s2[p])
			out := dest[pOff : pOff+s]
			for i := 0; i < s; i++ {
				var f1, f2 T = 1, 1
				if uint(state1) < uint(s) {
					f1 = m1[mOff+i*s+state1]
				}
				if uint(state2) < uint(s) {
					f2 = m2[mOff+i*s+state2]
				}
				out[i] = f1 * f2
			}
		}
	}
}
