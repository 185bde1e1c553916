package kernels

import "math"

// Fused-multiply-add kernel variants, selected when a device advertises fast
// FMA support — the analogue of compiling the OpenCL kernels with
// FP_FAST_FMA / FP_FAST_FMAF defined (§VII-B1, Table IV). Accumulations run
// through math.FMA, performing the multiply and add in a single correctly
// rounded operation.

// fma is a generic fused multiply-add: round(a·b + c) in one step.
//
//beagle:noalloc
func fma[T Real](a, b, c T) T {
	return T(math.FMA(float64(a), float64(b), float64(c)))
}

// PartialsPartialsFMA is PartialsPartials with FMA accumulation.
//
//beagle:noalloc
func PartialsPartialsFMA[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
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
					sum1 = fma(row1[j], v1[j], sum1)
					sum2 = fma(row2[j], v2[j], sum2)
				}
				out[i] = sum1 * sum2
			}
		}
	}
}

// StatesPartialsFMA is StatesPartials with FMA accumulation.
//
//beagle:noalloc
func StatesPartialsFMA[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
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
					sum2 = fma(row2[j], v2[j], sum2)
				}
				out[i] = f1 * sum2
			}
		}
	}
}
