package kernels_test

import (
	"math/rand"
	"testing"

	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
)

// Wide-state kernel rates in the paper's unit (effective GFLOPS, via
// internal/flops), each beside the generic kernel it replaces. They live in
// the external test package because flops imports kernels.

type wideBench struct {
	d              kernels.Dims
	dest           []float64
	p1, m1, p2, m2 []float64
	s1             []int32
}

func newWideBench(states, patterns, categories int) *wideBench {
	rng := rand.New(rand.NewSource(1))
	d := kernels.Dims{StateCount: states, PatternCount: patterns, CategoryCount: categories}
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	w := &wideBench{d: d, dest: make([]float64, d.PartialsLen()),
		p1: fill(d.PartialsLen()), m1: fill(d.MatrixLen()), p2: fill(d.PartialsLen()), m2: fill(d.MatrixLen()),
		s1: make([]int32, patterns)}
	for i := range w.s1 {
		w.s1[i] = int32(rng.Intn(states + 1))
	}
	return w
}

func (w *wideBench) partialsPartials(b *testing.B, k func(dest, p1, m1, p2, m2 []float64, d kernels.Dims, lo, hi int)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(w.dest, w.p1, w.m1, w.p2, w.m2, w.d, 0, w.d.PatternCount)
	}
	b.ReportMetric(flops.GFLOPS(flops.Total(w.d, b.N), b.Elapsed()), "GFLOPS")
}

func (w *wideBench) statesPartials(b *testing.B, k func(dest []float64, s1 []int32, m1, p2, m2 []float64, d kernels.Dims, lo, hi int)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(w.dest, w.s1, w.m1, w.p2, w.m2, w.d, 0, w.d.PatternCount)
	}
	b.ReportMetric(flops.GFLOPS(flops.Total(w.d, b.N), b.Elapsed()), "GFLOPS")
}

func BenchmarkPartialsPartialsGenericAmino(b *testing.B) {
	newWideBench(20, 2000, 1).partialsPartials(b, kernels.PartialsPartials[float64])
}

func BenchmarkPartialsPartialsWideAmino(b *testing.B) {
	newWideBench(20, 2000, 1).partialsPartials(b, kernels.PartialsPartialsWide[float64])
}

func BenchmarkPartialsPartialsGenericCodon(b *testing.B) {
	newWideBench(61, 1000, 1).partialsPartials(b, kernels.PartialsPartials[float64])
}

func BenchmarkPartialsPartialsWideCodon(b *testing.B) {
	newWideBench(61, 1000, 1).partialsPartials(b, kernels.PartialsPartialsWide[float64])
}

func BenchmarkStatesPartialsGenericCodon(b *testing.B) {
	newWideBench(61, 1000, 1).statesPartials(b, kernels.StatesPartials[float64])
}

func BenchmarkStatesPartialsWideCodon(b *testing.B) {
	newWideBench(61, 1000, 1).statesPartials(b, kernels.StatesPartialsWide[float64])
}
