package kernels

import (
	"math/rand"
	"testing"
)

// TestKernelsAllocateNothing pins the //beagle:noalloc contract at runtime
// for every exported annotated kernel. The noalloc analyzer proves the
// absence of allocating syntax; this guard catches what escape analysis
// decides behind the syntax (a spilled slice header, a devirtualization
// regression). The allocguard analyzer fails the build if a kernel loses its
// entry here.
func TestKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pr := newProblem[float64](rng, 4, 16, 2)
	pr32 := newProblem[float32](rng, 4, 16, 2)
	d := pr.d
	dest := make([]float64, d.PartialsLen())
	dest32 := make([]float32, d.PartialsLen())
	site := make([]float64, d.PatternCount)
	scale := make([]float64, d.PatternCount)
	cum := make([]float64, d.PatternCount)
	factors := [][]float64{scale}
	weights := []float64{0.5, 0.5}
	freqs := []float64{0.25, 0.25, 0.25, 0.25}
	// rare32's pattern 6 is all zeros, which the 4-state assembly hands back
	// to Go.
	rare32 := append([]float32(nil), pr32.p1...)
	for c := 0; c < d.CategoryCount; c++ {
		clear(rare32[(c*d.PatternCount+6)*4 : (c*d.PatternCount+7)*4])
	}
	patternWeights := make([]float64, d.PatternCount)
	for i := range patternWeights {
		patternWeights[i] = 1
	}

	// A compact cherry's class table and ids over pr's states, and the side
	// tables a parent gathers from, in both precisions.
	side1, side2, tab := make([]float64, 5*2*4), make([]float64, 5*2*4), make([]float64, 25*2*4)
	side32, tab32 := make([]float32, 25*2*4), make([]float32, 25*2*4)
	ids := make([]int32, d.PatternCount)

	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		TipSide4(side1, pr.m1, d.CategoryCount)
		TipSide4(side2, pr.m2, d.CategoryCount)
		ClassTable4(tab, side1, 5, side2, 5, d.CategoryCount)
		ClassIDs(ids, pr.s1, 5, pr.s2)
		SideRows4(tab32, tab32, pr32.m1, 25, d.CategoryCount) // odd row count: Go-body tail
		SideRows4(tab, tab, pr.m1, 25, d.CategoryCount)
		ClassTable4(tab32, side32, 5, side32, 5, d.CategoryCount) // odd second child: one 128-bit row
		ExpandClasses4(dest, tab, ids, 25, d)
		GatherGather4(dest, ids, tab, 25, pr.s2, side2, 5, d, 0, d.PatternCount)
		GatherGather4(dest32, ids, side32, 25, ids, tab32, 25, d, 1, d.PatternCount)
		GatherPartials4(dest, ids, tab, 25, pr.p2, pr.m2, d, 0, d.PatternCount)
		GatherPartials4(dest32, ids, tab32, 25, pr32.p2, pr32.m2, d, 1, d.PatternCount) // odd span: Go-body tail
		PartialsPartials(dest, pr.p1, pr.m1, pr.p2, pr.m2, d, 0, d.PatternCount)
		StatesPartials(dest, pr.s1, pr.m1, pr.p2, pr.m2, d, 0, d.PatternCount)
		StatesStates(dest, pr.s1, pr.m1, pr.s2, pr.m2, d, 0, d.PatternCount)
		PartialsPartials4(dest, pr.p1, pr.m1, pr.p2, pr.m2, d, 0, d.PatternCount)
		StatesPartials4(dest, pr.s1, pr.m1, pr.p2, pr.m2, d, 0, d.PatternCount)
		PartialsPartials4(dest32, pr32.p1, pr32.m1, pr32.p2, pr32.m2, d, 1, d.PatternCount) // odd span: Go-body tail
		StatesPartials4(dest32, pr32.s1, pr32.m1, pr32.p2, pr32.m2, d, 1, d.PatternCount)
		StatesStates4(dest, pr.s1, pr.m1, pr.s2, pr.m2, d, 0, d.PatternCount)
		StatesStates4(dest32, pr32.s1, pr32.m1, pr32.s2, pr32.m2, d, 1, d.PatternCount) // odd span: block tail
		PartialsPartialsFMA(dest, pr.p1, pr.m1, pr.p2, pr.m2, d, 0, d.PatternCount)
		SiteLikelihoods(site, dest, weights, freqs, d, 0, d.PatternCount)
		SiteLikelihoods(site, dest32, weights, freqs, d, 0, d.PatternCount)
		SiteLikelihoods(site, dest32, weights, freqs, d, 1, d.PatternCount) // odd span: Go-body tail
		LogSites(site, site, nil, 0, d.PatternCount)
		LogSites(site, site, cum, 1, d.PatternCount) // odd span: Go-body tail
		EdgeDerivativeRatios(site, scale, cum, 0, d.PatternCount)
		EdgeSiteLikelihoods(site, pr.p1, pr.p2, pr.m1, weights, freqs, d, 0, d.PatternCount)
		RescalePartials(dest, scale, d, 0, d.PatternCount)
		RescalePartials(rare32, scale, d, 1, d.PatternCount) // odd lo: float32 blocks, a declined pattern, a tail
		ApplyReadScale(dest, scale, d, 0, d.PatternCount)
		AccumulateScaleFactors(cum, factors, 0, d.PatternCount)
		sink = RootLogLikelihood(site, patternWeights, cum, 0, d.PatternCount)
		sink += WeightedSum(0, site, patternWeights)
	})
	if allocs != 0 {
		t.Errorf("kernel sweep allocates %.1f times per run, want 0", allocs)
	}
	_ = sink
}
