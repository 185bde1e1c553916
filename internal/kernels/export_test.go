package kernels

// The 4-state kernels' unrolled Go bodies, for the external test package's
// benchmarks, which time the assembly against them.

func PartialsPartials4Go[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
	partialsPartials4Go(dest, p1, m1, p2, m2, d, lo, hi)
}

func StatesPartials4Go[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	statesPartials4Go(dest, s1, m1, p2, m2, d, lo, hi)
}
