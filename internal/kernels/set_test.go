package kernels

import (
	"math/rand"
	"testing"
)

// TestForStateCount pins the state-count table: nucleotide data binds the
// unrolled family, every other state count the generic one, and whatever is
// bound computes what the generic kernels compute.
func TestForStateCount(t *testing.T) {
	for states, want := range map[int]string{4: FamilyUnrolled4, 20: FamilyGeneric, 61: FamilyGeneric, 5: FamilyGeneric} {
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
