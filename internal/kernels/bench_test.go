package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// Ablation micro-benchmarks for the kernel-variant design choices DESIGN.md
// calls out: FMA vs plain accumulation. The 4-state (assembly against its Go body and
// the generic loop) and wide-state kernels are measured in
// bench_wide_test.go, in GFLOPS.

func benchProblem(s, pat, cat int) *problem[float64] {
	return newProblem[float64](rand.New(rand.NewSource(1)), s, pat, cat)
}

func BenchmarkPartialsPartialsFMA4State(b *testing.B) {
	pr := benchProblem(4, 4096, 4)
	dest := make([]float64, pr.d.PartialsLen())
	for i := 0; i < b.N; i++ {
		PartialsPartialsFMA(dest, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 4096)
	}
}

func BenchmarkUpdateTransitionMatrixCodon(b *testing.B) {
	e := &Eigen{StateCount: 61}
	rng := rand.New(rand.NewSource(2))
	e.Values = make([]float64, 61)
	e.Vectors = make([]float64, 61*61)
	e.InverseVectors = make([]float64, 61*61)
	for i := range e.Values {
		e.Values[i] = -rng.Float64()
	}
	for i := range e.Vectors {
		e.Vectors[i] = rng.NormFloat64()
		e.InverseVectors[i] = rng.NormFloat64()
	}
	out := make([]float64, 61*61)
	for i := 0; i < b.N; i++ {
		UpdateTransitionMatrix(out, e, 0.1, []float64{1})
	}
}

// BenchmarkUpdateTransitionMatrix4 builds one nucleotide model's matrices:
// four states, four rate categories, double precision.
func BenchmarkUpdateTransitionMatrix4(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	e := &Eigen{StateCount: 4, Values: make([]float64, 4), Vectors: make([]float64, 16), InverseVectors: make([]float64, 16)}
	for i := range e.Values {
		e.Values[i] = -rng.Float64()
	}
	for i := range e.Vectors {
		e.Vectors[i] = rng.NormFloat64()
		e.InverseVectors[i] = rng.NormFloat64()
	}
	out := make([]float64, 4*16)
	rates := []float64{0.1, 0.5, 1.2, 2.2}
	for i := 0; i < b.N; i++ {
		UpdateTransitionMatrix(out, e, 0.1, rates)
	}
}

// BenchmarkRescalePartials rescales deep_small's shape (256 patterns, four
// categories, four states) in both precisions from a pristine unnormalised
// copy every iteration, so each pass does the work an operation's rescale
// does rather than renormalising its own output. unrolled4 is
// RescalePartials (the assembly where the CPU has it), go its Go body,
// generic the loop over states; each includes the copy, which copy times
// alone, so a kernel's own time is its figure less copy's. Reported per
// pattern.
func BenchmarkRescalePartials(b *testing.B) {
	b.Run("float64", func(b *testing.B) { benchRescalePartials[float64](b) })
	b.Run("float32", func(b *testing.B) { benchRescalePartials[float32](b) })
}

func benchRescalePartials[T Real](b *testing.B) {
	const patterns = 256
	pr := newProblem[T](rand.New(rand.NewSource(1)), 4, patterns, 4)
	for i := range pr.p1 {
		pr.p1[i] *= 0x1p-40 // a deep internal node's magnitude
	}
	work := make([]T, len(pr.p1))
	scale := make([]float64, patterns)
	for _, k := range []struct {
		name string
		fn   func(partials []T, scale []float64, d Dims, lo, hi int)
	}{
		{"unrolled4", RescalePartials[T]},
		{"go", rescalePartials4[T]},
		{"generic", rescalePartialsGeneric[T]},
		{"copy", func([]T, []float64, Dims, int, int) {}},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, pr.p1)
				k.fn(work, scale, pr.d, 0, patterns)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*patterns), "ns/pattern")
		})
	}
}

// BenchmarkAccumulateScaleFactors sums deep_small's 127 scale buffers of
// 256 patterns, as its root integration does each evaluation.
func BenchmarkAccumulateScaleFactors(b *testing.B) {
	const buffers, patterns = 127, 256
	rng := rand.New(rand.NewSource(1))
	factors := make([][]float64, buffers)
	for k := range factors {
		factors[k] = make([]float64, patterns)
		for p := range factors[k] {
			factors[k][p] = float64(rng.Intn(64)) * math.Ln2
		}
	}
	cum := make([]float64, patterns)
	for i := 0; i < b.N; i++ {
		AccumulateScaleFactors(cum, factors, 0, patterns)
	}
}

// BenchmarkSiteLikelihoods integrates a root of nuc_large's shape (20 000
// patterns, four categories, four states) in both precisions: unrolled4 is
// SiteLikelihoods, which takes the 4-state path (AVX2 where the CPU has
// it), generic the loop over states it is held to. Reported per pattern.
func BenchmarkSiteLikelihoods(b *testing.B) {
	b.Run("float32", func(b *testing.B) { benchSiteLikelihoods[float32](b) })
	b.Run("float64", func(b *testing.B) { benchSiteLikelihoods[float64](b) })
}

func benchSiteLikelihoods[T Real](b *testing.B) {
	const patterns = 20000
	pr := newProblem[T](rand.New(rand.NewSource(1)), 4, patterns, 4)
	out := make([]float64, patterns)
	wts := []float64{0.25, 0.25, 0.25, 0.25}
	freqs := []float64{0.1, 0.2, 0.3, 0.4}
	for _, k := range []struct {
		name string
		fn   func(out []float64, root []T, catWeights, freqs []float64, d Dims, lo, hi int)
	}{{"unrolled4", SiteLikelihoods[T]}, {"generic", siteLikelihoodsGeneric[T]}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(out, pr.p1, wts, freqs, pr.d, 0, patterns)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*patterns), "ns/pattern")
		})
	}
}

// BenchmarkRootIntegration times the root integration's per-pattern work at
// nuc_large's shape (20 000 patterns, four categories, float32): the site
// likelihoods, the site logs and the weighted sum. site and log time the
// two kernels alone, each bound kernel (avx2 where the CPU has it) against
// its Go body, and the log against a math.Log loop too; total times the
// three steps together, the Go site body with a math.Log loop against
// SiteLikelihoods with LogSites. Reported per pattern.
func BenchmarkRootIntegration(b *testing.B) {
	const patterns = 20000
	pr := newProblem[float32](rand.New(rand.NewSource(1)), 4, patterns, 4)
	site := make([]float64, patterns)
	out := make([]float64, patterns)
	wts := []float64{0.25, 0.25, 0.25, 0.25}
	freqs := []float64{0.1, 0.2, 0.3, 0.4}
	patW := make([]float64, patterns)
	for i := range patW {
		patW[i] = 1
	}
	siteLikelihoods4Go(site, pr.p1, wts, freqs, pr.d, 0, patterns)
	mathLog := func(out, site, _ []float64, lo, hi int) {
		for p := lo; p < hi; p++ {
			out[p] = math.Log(site[p])
		}
	}
	var sink float64
	run := func(name string, body func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*patterns), "ns/pattern")
		})
	}
	type siteBody func(out []float64, root []float32, catWeights, freqs []float64, d Dims, lo, hi int)
	type logBody func(out, site, scale []float64, lo, hi int)
	sites := []struct {
		name string
		fn   siteBody
	}{{"go", siteLikelihoods4Go[float32]}, {"avx2", SiteLikelihoods[float32]}}
	logs := []struct {
		name string
		fn   logBody
	}{{"math.Log", mathLog}, {"go", logSitesGo}, {"avx2", LogSites}}
	for _, k := range sites {
		run("site/"+k.name, func() { k.fn(site, pr.p1, wts, freqs, pr.d, 0, patterns) })
	}
	for _, k := range logs {
		run("log/"+k.name, func() { k.fn(out, site, nil, 0, patterns) })
	}
	for _, k := range []struct {
		name string
		site siteBody
		log  logBody
	}{{"math.Log", siteLikelihoods4Go[float32], mathLog}, {"avx2", SiteLikelihoods[float32], LogSites}} {
		run("total/"+k.name, func() {
			k.site(out, pr.p1, wts, freqs, pr.d, 0, patterns)
			k.log(out, out, nil, 0, patterns)
			sink += WeightedSum(0, out, patW)
		})
	}
	_ = sink
}
