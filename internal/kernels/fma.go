package kernels

import "math"

// fma is a generic fused multiply-add: round(a·b + c) in one step.
//
//beagle:noalloc
func fma[T Real](a, b, c T) T {
	return T(math.FMA(float64(a), float64(b), float64(c)))
}

// PartialsPartialsFMA is PartialsPartials with FMA accumulation. It is no
// engine's kernel: no Set binds it, and FMA is a rate in the accelerator cost
// model (Table IV), not a second code path. It stays only for the benchmark
// probe that times it (kernels.pp_gflops.fma4_f64 in bench/mark), and goes
// with that probe.
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
