package seqgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

func TestRandomAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := RandomAlignment(rng, 5, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sequences) != 5 || a.SiteCount() != 100 {
		t.Fatalf("shape %dx%d", len(a.Sequences), a.SiteCount())
	}
	for _, seq := range a.Sequences {
		for _, s := range seq {
			if s < 0 || s >= 4 {
				t.Fatalf("state %d out of range", s)
			}
		}
	}
	if _, err := RandomAlignment(rng, 1, 4, 10); err == nil {
		t.Fatal("expected error for 1 tip")
	}
	if _, err := RandomAlignment(rng, 4, 4, 0); err == nil {
		t.Fatal("expected error for 0 sites")
	}
}

func TestSimulateShapeAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := tree.Random(rng, 6, 0.1)
	m := substmodel.NewJC69()
	a, err := Simulate(rng, tr, m, substmodel.SingleRate(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sequences) != 6 || a.SiteCount() != 500 {
		t.Fatalf("shape %dx%d", len(a.Sequences), a.SiteCount())
	}
	if a.StateCount != 4 {
		t.Fatalf("state count %d", a.StateCount)
	}
	for i, tip := range tr.Tips() {
		if a.TipNames[i] != tip.Name {
			t.Fatalf("tip name mismatch at %d", i)
		}
	}
}

func TestSimulateShortBranchesNearIdentical(t *testing.T) {
	// With tiny branch lengths, tip sequences should be nearly identical.
	rng := rand.New(rand.NewSource(3))
	tr, _ := tree.Random(rng, 4, 1e-6)
	m := substmodel.NewJC69()
	a, err := Simulate(rng, tr, m, substmodel.SingleRate(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for s := 0; s < a.SiteCount(); s++ {
		for tip := 1; tip < len(a.Sequences); tip++ {
			if a.Sequences[tip][s] != a.Sequences[0][s] {
				diffs++
			}
		}
	}
	if diffs > 5 {
		t.Fatalf("too many differences (%d) for near-zero branches", diffs)
	}
}

func TestSimulateLongBranchesUniform(t *testing.T) {
	// With very long branches states should approach the stationary
	// distribution (uniform for JC): roughly 25% each.
	rng := rand.New(rand.NewSource(4))
	tr, _ := tree.Random(rng, 2, 50)
	m := substmodel.NewJC69()
	a, err := Simulate(rng, tr, m, substmodel.SingleRate(), 8000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, s := range a.Sequences[0] {
		counts[s]++
	}
	for s, c := range counts {
		frac := float64(c) / 8000
		if math.Abs(frac-0.25) > 0.03 {
			t.Fatalf("state %d frequency %v, want ≈0.25", s, frac)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, _ := tree.Random(rng, 4, 0.1)
	if _, err := Simulate(rng, tr, substmodel.NewJC69(), substmodel.SingleRate(), 0); err == nil {
		t.Fatal("expected error for zero sites")
	}
}

func TestCompressPatternsWeightsSumToSites(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tips := 2 + rng.Intn(6)
		sites := 1 + rng.Intn(200)
		a, err := RandomAlignment(rng, tips, 4, sites)
		if err != nil {
			return false
		}
		ps := CompressPatterns(a)
		var sum float64
		for _, w := range ps.Weights {
			if w < 1 {
				return false
			}
			sum += w
		}
		return sum == float64(sites) && ps.PatternCount() <= sites
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompressPatternsDeduplicates(t *testing.T) {
	a := &Alignment{
		TipNames:   []string{"a", "b"},
		StateCount: 4,
		Sequences: [][]int{
			{0, 1, 0, 2, 0},
			{3, 1, 3, 2, 3},
		},
	}
	ps := CompressPatterns(a)
	if ps.PatternCount() != 3 {
		t.Fatalf("pattern count %d want 3", ps.PatternCount())
	}
	// Pattern (0,3) occurs three times.
	found := false
	for i, pat := range ps.Patterns {
		if pat[0] == 0 && pat[1] == 3 {
			found = true
			if ps.Weights[i] != 3 {
				t.Fatalf("weight %v want 3", ps.Weights[i])
			}
		}
	}
	if !found {
		t.Fatal("pattern (0,3) missing")
	}
}

func TestCompressPatternsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, _ := RandomAlignment(rng, 4, 4, 50)
	p1 := CompressPatterns(a)
	p2 := CompressPatterns(a)
	if p1.PatternCount() != p2.PatternCount() {
		t.Fatal("non-deterministic pattern count")
	}
	for i := range p1.Patterns {
		for j := range p1.Patterns[i] {
			if p1.Patterns[i][j] != p2.Patterns[i][j] {
				t.Fatal("non-deterministic pattern order")
			}
		}
	}
}

func TestRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps, err := RandomPatterns(rng, 8, 61, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ps.PatternCount() != 1000 || ps.TipCount != 8 || ps.StateCount != 61 {
		t.Fatalf("unexpected shape %+v", ps)
	}
	for _, w := range ps.Weights {
		if w != 1 {
			t.Fatalf("weight %v want 1", w)
		}
	}
	if _, err := RandomPatterns(rng, 8, 61, 0); err == nil {
		t.Fatal("expected error for zero patterns")
	}
}

func TestTipStatesAndPartialsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps, _ := RandomPatterns(rng, 4, 4, 20)
	for tip := 0; tip < 4; tip++ {
		states := ps.TipStates(tip)
		partials := ps.TipPartials(tip)
		for i, s := range states {
			for k := 0; k < 4; k++ {
				want := 0.0
				if k == s {
					want = 1
				}
				if partials[i*4+k] != want {
					t.Fatalf("tip %d pattern %d state %d: partial %v want %v",
						tip, i, k, partials[i*4+k], want)
				}
			}
		}
	}
}

func TestTipPartialsAmbiguity(t *testing.T) {
	ps := &PatternSet{
		StateCount: 4,
		TipCount:   1,
		Patterns:   [][]int{{4}}, // ≥ StateCount means fully ambiguous
		Weights:    []float64{1},
	}
	p := ps.TipPartials(0)
	for k := 0; k < 4; k++ {
		if p[k] != 1 {
			t.Fatalf("ambiguous tip partials %v", p)
		}
	}
}

func TestSimulateWithGammaRates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _ := tree.Random(rng, 5, 0.2)
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(rng, tr, substmodel.NewJC69(), rates, 200)
	if err != nil {
		t.Fatal(err)
	}
	if a.SiteCount() != 200 {
		t.Fatalf("site count %d", a.SiteCount())
	}
}

func TestEmpiricalFrequencies(t *testing.T) {
	// Six A, two C, no G, one T and one gap: add-one counts over 9 states seen.
	a := &Alignment{StateCount: 4, Sequences: [][]int{{0, 0, 0, 1, 3}, {0, 0, 0, 1, 4}}}
	got := a.EmpiricalFrequencies()
	want := []float64{7.0 / 13, 3.0 / 13, 1.0 / 13, 2.0 / 13}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frequencies %v, want %v", got, want)
		}
	}
	gaps := &Alignment{StateCount: 4, Sequences: [][]int{{4, 4}, {4, 4}}}
	for _, f := range gaps.EmpiricalFrequencies() {
		if f != 0.25 {
			t.Fatalf("an all-gap alignment gives %v, want uniform", gaps.EmpiricalFrequencies())
		}
	}
}
