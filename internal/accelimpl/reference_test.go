package accelimpl

import (
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/tree"
)

// referenceProblem is one likelihood problem given to an engine entirely
// through setters: tip states with gaps, explicit transition matrices, and
// the integration's weights and frequencies.
type referenceProblem struct {
	tr       *tree.Tree
	d        kernels.Dims
	states   [][]int // per tip, per pattern; StateCount is a gap
	matrices [][]float64
	catWts   []float64
	freqs    []float64
	patWts   []float64
}

func newReferenceProblem(rng *rand.Rand, tr *tree.Tree, d kernels.Dims) *referenceProblem {
	pr := &referenceProblem{tr: tr, d: d, freqs: make([]float64, d.StateCount), patWts: make([]float64, d.PatternCount)}
	for i := range pr.freqs {
		pr.freqs[i] = 1 / float64(d.StateCount)
	}
	for p := range pr.patWts {
		pr.patWts[p] = float64(1 + p%3)
	}
	pr.catWts = make([]float64, d.CategoryCount)
	for c := range pr.catWts {
		pr.catWts[c] = 1 / float64(d.CategoryCount)
	}
	for i := 0; i < tr.TipCount; i++ {
		st := make([]int, d.PatternCount)
		for p := range st {
			st[p] = rng.Intn(d.StateCount + 1)
		}
		pr.states = append(pr.states, st)
	}
	for m := 0; m < tr.NodeCount(); m++ {
		vals := make([]float64, d.MatrixLen())
		for i := range vals {
			vals[i] = rng.Float64()
		}
		pr.matrices = append(pr.matrices, vals)
	}
	return pr
}

// tipPartials expands a tip's states, a gap to all ones.
func (pr *referenceProblem) tipPartials(tip int) []float64 {
	s := pr.d.StateCount
	out := make([]float64, pr.d.PatternCount*s)
	for p, st := range pr.states[tip] {
		for i := 0; i < s; i++ {
			if st == s || st == i {
				out[p*s+i] = 1
			}
		}
	}
	return out
}

// referenceResult is everything an evaluation returns.
type referenceResult struct {
	lnL      float64
	site     []float64
	partials [][]float64 // per operation, in schedule order
}

// run evaluates the problem, every operation rescaled, with compact or
// expanded tips.
func (pr *referenceProblem) run(t *testing.T, e engine.Engine, compact bool) referenceResult {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.SetCategoryWeights(pr.catWts))
	must(e.SetStateFrequencies(pr.freqs))
	must(e.SetPatternWeights(pr.patWts))
	for i := range pr.states {
		if compact {
			must(e.SetTipStates(i, pr.states[i]))
		} else {
			must(e.SetTipPartials(i, pr.tipPartials(i)))
		}
	}
	for m, vals := range pr.matrices {
		must(e.SetTransitionMatrix(m, vals))
	}
	sched := pr.tr.FullSchedule()
	ops := make([]engine.Operation, len(sched.Ops))
	scaleBufs := make([]int, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{Dest: op.Dest, DestScaleWrite: i, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat, Child2: op.Child2, Child2Mat: op.Child2Mat}
		scaleBufs[i] = i
	}
	must(e.UpdatePartials(ops))
	cum := len(sched.Ops)
	must(e.ResetScaleFactors(cum))
	must(e.AccumulateScaleFactors(scaleBufs, cum))
	var res referenceResult
	var err error
	res.lnL, err = e.CalculateRootLogLikelihoods(sched.Root, cum)
	must(err)
	res.site, err = e.SiteLogLikelihoods(sched.Root, cum)
	must(err)
	for _, op := range ops {
		part, err := e.GetPartials(op.Dest)
		must(err)
		res.partials = append(res.partials, part)
	}
	return res
}

// firstDifference returns the first index at which a and b differ in bits,
// -1 when they are identical.
func firstDifference(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAcceleratorsComputeReferenceBits: with FMA off every variant binds the
// generic kernels, so whatever its launch geometry it returns the serial CPU
// engine's bits — every operation's partials, the site and the root log
// likelihoods. Matrices are set explicitly, because the device builds its own
// row by row. The pattern count is no multiple of any variant's group size,
// so GPU work-groups straddle rate categories and the last group is partial.
// Compact tips drive the states-states and states-partials kernels (seven
// tips cannot all pair off), expanded tips the partials-partials kernel.
func TestAcceleratorsComputeReferenceBits(t *testing.T) {
	const tips, patterns, cats = 7, 203, 3
	device.ResetPlatforms()
	for _, states := range []int{4, 61} {
		rng := rand.New(rand.NewSource(int64(states)))
		tr, err := tree.Random(rng, tips, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		pr := newReferenceProblem(rng, tr, kernels.Dims{StateCount: states, PatternCount: patterns, CategoryCount: cats})
		for _, single := range []bool{false, true} {
			cfg := testConfig(tr, states, patterns, cats, single)
			cfg.DisableFMA = true
			for _, compact := range []bool{true, false} {
				ref, err := cpuimpl.New(cfg, cpuimpl.Serial)
				if err != nil {
					t.Fatal(err)
				}
				want := pr.run(t, ref, compact)
				ref.Close()
				for _, vc := range variantCases {
					e := newCase(t, vc, cfg)
					if g := e.(interface{ GroupPatterns() int }).GroupPatterns(); patterns%g == 0 {
						t.Fatalf("%s: %d patterns fill groups of %d exactly", vc.name, patterns, g)
					}
					got := pr.run(t, e, compact)
					e.Close()
					name := vc.name
					if single {
						name += "/single"
					}
					if compact {
						name += "/compact tips"
					}
					if math.Float64bits(got.lnL) != math.Float64bits(want.lnL) {
						t.Errorf("%s, %d states: root lnL %v, serial %v", name, states, got.lnL, want.lnL)
					}
					if i := firstDifference(got.site, want.site); i >= 0 {
						t.Errorf("%s, %d states: site lnL %d differs from serial", name, states, i)
					}
					for k := range want.partials {
						if i := firstDifference(got.partials[k], want.partials[k]); i >= 0 {
							t.Errorf("%s, %d states: operation %d partials entry %d differs from serial", name, states, k, i)
						}
					}
				}
			}
		}
	}
}
