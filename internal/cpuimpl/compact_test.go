package cpuimpl

import (
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/engine"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// TestCompactSubtreesAreTablesNotRows holds the modes that run the 4-state
// kernels to keeping every unscaled operation with at most three tips below
// (125 classes, a quarter of 520 patterns at most) as a class table: its
// partials buffer is never allocated, the batch counts it as computed, and
// every result — root, edge and edge derivatives across a compact child,
// and GetPartials of every internal buffer — is Serial's, bit for bit.
// Scaled operations stay full width.
func TestCompactSubtreesAreTablesNotRows(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	tr, err := tree.Random(rng, 12, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, 700)
	if err != nil {
		t.Fatal(err)
	}
	ps := seqgen.CompressPatterns(align)
	sched := tr.FullSchedule()
	tips := map[int]int{}
	for i := 0; i < tr.TipCount; i++ {
		tips[i] = 1
	}
	compact := map[int]bool{}
	for _, op := range sched.Ops {
		tips[op.Dest] = tips[op.Child1] + tips[op.Child2]
		compact[op.Dest] = int(math.Pow(5, float64(tips[op.Dest])))*4 <= ps.PatternCount()
	}
	var edgeChild int
	for _, op := range sched.Ops {
		if compact[op.Dest] {
			edgeChild = op.Dest
		}
	}
	if len(compact) == 0 || edgeChild == 0 {
		t.Fatalf("no compact operation at %d patterns", ps.PatternCount())
	}

	run := func(mode Mode, scaled bool) (engine.Engine, []float64) {
		e, err := New(testConfig(tr, 4, ps.PatternCount(), 4, false), mode)
		if err != nil {
			t.Fatal(err)
		}
		lnL := driveEngine(t, e, tr, m, rates, ps, true, scaled)
		edge, err := e.CalculateEdgeLogLikelihoods(sched.Root, edgeChild, edgeChild, engine.None)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.UpdateTransitionDerivatives(0, []int{0}, []int{1}, []float64{0.2}); err != nil {
			t.Fatal(err)
		}
		dl, d1, d2, err := e.CalculateEdgeDerivatives(sched.Root, edgeChild, edgeChild, 0, 1, engine.None)
		if err != nil {
			t.Fatal(err)
		}
		out := []float64{lnL, edge, dl, d1, d2}
		for _, op := range sched.Ops {
			p, err := e.GetPartials(op.Dest)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p...)
		}
		return e, out
	}
	for _, scaled := range []bool{false, true} {
		ref, want := run(Serial, scaled)
		ref.Close()
		for _, mode := range Modes()[1:] {
			e, got := run(mode, scaled)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v scaled=%v: value %d is %v, Serial %v", mode, scaled, i, got[i], want[i])
				}
			}
			st := e.(*Engine[float64]).Storage
			for _, op := range sched.Ops {
				if tabled := st.Partials[op.Dest] == nil; tabled != (compact[op.Dest] && !scaled) {
					t.Errorf("%v scaled=%v: operation into %d (%d tips) keeps a table: %v", mode, scaled, op.Dest, tips[op.Dest], tabled)
				}
			}
			e.Close()
		}
	}
}
