package kernels_test

import (
	"math/rand"
	"testing"

	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
)

// Specialised kernel rates in the paper's unit (effective GFLOPS, via
// internal/flops), each beside the kernel it replaces: the wide-state family
// beside the generic loop, and the 4-state assembly beside its unrolled Go
// body and the generic loop. They live in the external test package because
// flops imports kernels.

type kernelBench[T kernels.Real] struct {
	d              kernels.Dims
	dest           []T
	p1, m1, p2, m2 []T
	s1, s2         []int32
}

func newKernelBench[T kernels.Real](states, patterns, categories int) *kernelBench[T] {
	rng := rand.New(rand.NewSource(1))
	d := kernels.Dims{StateCount: states, PatternCount: patterns, CategoryCount: categories}
	fill := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = T(rng.Float64())
		}
		return v
	}
	w := &kernelBench[T]{d: d, dest: make([]T, d.PartialsLen()),
		p1: fill(d.PartialsLen()), m1: fill(d.MatrixLen()), p2: fill(d.PartialsLen()), m2: fill(d.MatrixLen()),
		s1: make([]int32, patterns), s2: make([]int32, patterns)}
	for i := range w.s1 {
		w.s1[i] = int32(rng.Intn(states + 1))
	}
	for i := range w.s2 {
		w.s2[i] = int32(rng.Intn(states + 1))
	}
	return w
}

func (w *kernelBench[T]) partialsPartials(b *testing.B, k func(dest, p1, m1, p2, m2 []T, d kernels.Dims, lo, hi int)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(w.dest, w.p1, w.m1, w.p2, w.m2, w.d, 0, w.d.PatternCount)
	}
	b.ReportMetric(flops.GFLOPS(flops.Total(w.d, b.N), b.Elapsed()), "GFLOPS")
}

func (w *kernelBench[T]) statesPartials(b *testing.B, k func(dest []T, s1 []int32, m1, p2, m2 []T, d kernels.Dims, lo, hi int)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(w.dest, w.s1, w.m1, w.p2, w.m2, w.d, 0, w.d.PatternCount)
	}
	b.ReportMetric(flops.GFLOPS(flops.Total(w.d, b.N), b.Elapsed()), "GFLOPS")
}

func (w *kernelBench[T]) statesStates(b *testing.B, k func(dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d kernels.Dims, lo, hi int)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(w.dest, w.s1, w.m1, w.s2, w.m2, w.d, 0, w.d.PatternCount)
	}
	b.ReportMetric(flops.GFLOPS(flops.Total(w.d, b.N), b.Elapsed()), "GFLOPS")
}

func BenchmarkPartialsPartialsGenericAmino(b *testing.B) {
	newKernelBench[float64](20, 2000, 1).partialsPartials(b, kernels.PartialsPartials[float64])
}

func BenchmarkPartialsPartialsWideAmino(b *testing.B) {
	newKernelBench[float64](20, 2000, 1).partialsPartials(b, kernels.PartialsPartialsWide[float64])
}

func BenchmarkPartialsPartialsGenericCodon(b *testing.B) {
	newKernelBench[float64](61, 1000, 1).partialsPartials(b, kernels.PartialsPartials[float64])
}

func BenchmarkPartialsPartialsWideCodon(b *testing.B) {
	newKernelBench[float64](61, 1000, 1).partialsPartials(b, kernels.PartialsPartialsWide[float64])
}

func BenchmarkStatesPartialsGenericCodon(b *testing.B) {
	newKernelBench[float64](61, 1000, 1).statesPartials(b, kernels.StatesPartials[float64])
}

func BenchmarkStatesPartialsWideCodon(b *testing.B) {
	newKernelBench[float64](61, 1000, 1).statesPartials(b, kernels.StatesPartialsWide[float64])
}

// BenchmarkPartials4 times the 4-state kernels on 4096 patterns in four
// categories: unrolled4 (the bound kernels: assembly on an AVX2 host for
// PartialsPartials and StatesPartials, the product table for StatesStates),
// go (the unrolled Go body the assembly is held to) and generic (the loop
// over states).
func BenchmarkPartials4(b *testing.B) {
	b.Run("PartialsPartials/float32", func(b *testing.B) { benchPartials4[float32](b, "pp") })
	b.Run("PartialsPartials/float64", func(b *testing.B) { benchPartials4[float64](b, "pp") })
	b.Run("StatesPartials/float32", func(b *testing.B) { benchPartials4[float32](b, "sp") })
	b.Run("StatesPartials/float64", func(b *testing.B) { benchPartials4[float64](b, "sp") })
	b.Run("StatesStates/float32", func(b *testing.B) { benchPartials4[float32](b, "ss") })
	b.Run("StatesStates/float64", func(b *testing.B) { benchPartials4[float64](b, "ss") })
}

func benchPartials4[T kernels.Real](b *testing.B, which string) {
	w := newKernelBench[T](4, 4096, 4)
	switch which {
	case "pp":
		b.Run("unrolled4", func(b *testing.B) { w.partialsPartials(b, kernels.PartialsPartials4[T]) })
		b.Run("go", func(b *testing.B) { w.partialsPartials(b, kernels.PartialsPartials4Go[T]) })
		b.Run("generic", func(b *testing.B) { w.partialsPartials(b, kernels.PartialsPartials[T]) })
	case "sp":
		b.Run("unrolled4", func(b *testing.B) { w.statesPartials(b, kernels.StatesPartials4[T]) })
		b.Run("go", func(b *testing.B) { w.statesPartials(b, kernels.StatesPartials4Go[T]) })
		b.Run("generic", func(b *testing.B) { w.statesPartials(b, kernels.StatesPartials[T]) })
	case "ss":
		b.Run("unrolled4", func(b *testing.B) { w.statesStates(b, kernels.StatesStates4[T]) })
		b.Run("generic", func(b *testing.B) { w.statesStates(b, kernels.StatesStates[T]) })
	}
}
