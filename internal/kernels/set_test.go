package kernels

import (
	"math/rand"
	"testing"
)

// TestForStateCount pins the state-count table: nucleotide data binds the
// unrolled family; wider state counts up to MaxWideStates bind the wide
// family where VecMatT runs as assembly and the generic one where it does not
// (another architecture, a CPU without AVX2, -tags purego); everything else is
// generic; and whatever is bound computes what the generic kernels compute.
func TestForStateCount(t *testing.T) {
	wide, rescale4 := FamilyGeneric, "Go body"
	if vecMatAccelerated {
		wide, rescale4 = FamilyWide, "assembly"
	}
	t.Logf("VecMatT accelerated: %v; wide state counts bind %q; 4-state RescalePartials runs its %s", vecMatAccelerated, wide, rescale4)
	for states, want := range map[int]string{2: FamilyGeneric, 4: FamilyUnrolled4, 5: wide, 20: wide, 61: wide,
		MaxWideStates: wide, MaxWideStates + 1: FamilyGeneric} {
		set, gen := ForStateCount[float64](states), Generic[float64]()
		if set.Family != want {
			t.Errorf("%d states: family %q, want %q", states, set.Family, want)
		}
		pr := newProblem[float64](rand.New(rand.NewSource(int64(states))), states, 11, 2)
		got := make([]float64, pr.d.PartialsLen())
		ref := make([]float64, pr.d.PartialsLen())
		set.PartialsPartials(got, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 11)
		gen.PartialsPartials(ref, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 11)
		if d := maxDiff(got, ref); d > 1e-13 {
			t.Errorf("%d states: PartialsPartials differs from generic by %v", states, d)
		}
		set.StatesPartials(got, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 11)
		gen.StatesPartials(ref, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 11)
		if d := maxDiff(got, ref); d > 1e-13 {
			t.Errorf("%d states: StatesPartials differs from generic by %v", states, d)
		}
		set.StatesStates(got, pr.s1, pr.m1, pr.s2, pr.m2, pr.d, 0, 11)
		gen.StatesStates(ref, pr.s1, pr.m1, pr.s2, pr.m2, pr.d, 0, 11)
		if d := maxDiff(got, ref); d > 1e-13 {
			t.Errorf("%d states: StatesStates differs from generic by %v", states, d)
		}
	}
}
