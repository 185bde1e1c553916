package cpuimpl

// Tests for the two once-only decisions of an engine: which kernel family it
// binds at construction, and the per-batch validate-and-resolve pass every
// plan executes from.

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// boundFamily reports the kernel family an engine built by New bound.
func boundFamily(t *testing.T, e engine.Engine) string {
	t.Helper()
	switch e := e.(type) {
	case *Engine[float32]:
		return e.kern.Family
	case *Engine[float64]:
		return e.kern.Family
	}
	t.Fatalf("unexpected engine type %T", e)
	return ""
}

// scheduleOps converts a full peel into engine operations; scaleWrite and
// scaleRead pick each operation's scale buffers from its position.
func scheduleOps(tr *tree.Tree, scaleWrite, scaleRead func(i int) int) []engine.Operation {
	sched := tr.FullSchedule()
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: scaleWrite(i), DestScaleRead: scaleRead(i),
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	return ops
}

func noScale(int) int    { return engine.None }
func ownScale(i int) int { return i }

// evalResult is what one engine computed for one scaling variant.
type evalResult struct {
	lnL  float64
	site []float64
}

// TestKernelBinding pins, for every mode, state count and precision, which
// kernel family the engine binds (Serial: generic; every other mode: what the
// state-count table holds — unrolled4 at 4 states, and above that wide where
// VecMatT is assembly and generic where it is not, so the test passes both
// ways and logs which it saw), and that the binding is invisible in the
// results: SSE and the four threaded modes agree bit for bit, unscaled, with
// every operation rescaling (DestScaleWrite) and with every operation
// re-applying its stored factors (DestScaleRead); with the Serial baseline
// they agree bit for bit at 20 and 61 states — the wide family reproduces the
// generic kernels exactly — and to rounding at 4.
func TestKernelBinding(t *testing.T) {
	models := map[int]func() (*substmodel.Model, error){
		4:  func() (*substmodel.Model, error) { return substmodel.NewHKY85(2.5, []float64{0.3, 0.2, 0.25, 0.25}) },
		20: func() (*substmodel.Model, error) { return substmodel.NewPoissonAA(nil) },
		61: func() (*substmodel.Model, error) { return substmodel.NewGY94(2, 0.3, nil) },
	}
	for _, states := range []int{4, 20, 61} {
		table := kernels.ForStateCount[float64](states).Family
		switch {
		case states == 4 && table != kernels.FamilyUnrolled4,
			states != 4 && table != kernels.FamilyWide && table != kernels.FamilyGeneric:
			t.Fatalf("%d states: state-count table holds the %q kernels", states, table)
		}
		t.Logf("%d states: every mode but Serial binds the %q kernels", states, table)
		rng := rand.New(rand.NewSource(int64(states)))
		tr, err := tree.Random(rng, 8, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models[states]()
		if err != nil {
			t.Fatal(err)
		}
		rates, err := substmodel.GammaRates(0.7, 2)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := seqgen.RandomPatterns(rng, tr.TipCount, states, 45)
		if err != nil {
			t.Fatal(err)
		}
		for _, single := range []bool{false, true} {
			t.Run(fmt.Sprintf("states=%d/single=%v", states, single), func(t *testing.T) {
				// At 4 states Serial runs other kernels than the rest, so it
				// may differ by rounding (it does not on amd64, where Go
				// never fuses multiply-adds). Above 4 nothing may differ.
				tol := 1e-13
				if single {
					tol = 1e-5
				}
				if states != 4 {
					tol = 0
				}
				var serial, first map[string]evalResult
				for _, mode := range Modes() {
					e, err := New(testConfig(tr, states, ps.PatternCount(), 2, single), mode)
					if err != nil {
						t.Fatal(err)
					}
					want := kernels.FamilyGeneric
					if mode != Serial {
						want = table
					}
					if got := boundFamily(t, e); got != want {
						t.Errorf("%v: bound kernel family %q, want %q", mode, got, want)
					}
					got := evalVariants(t, e, tr, m, rates, ps)
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					switch {
					case mode == Serial:
						serial = got
						continue
					case first == nil:
						first = got
					}
					for name, r := range got {
						if r.lnL != first[name].lnL {
							t.Errorf("%v %s: lnL %v differs from %v's %v", mode, name, r.lnL, SSE, first[name].lnL)
						}
						if math.IsNaN(r.lnL) || math.Abs(r.lnL-serial[name].lnL) > tol*math.Abs(serial[name].lnL) {
							t.Errorf("%v %s: lnL %v, serial %v", mode, name, r.lnL, serial[name].lnL)
						}
						for p := range r.site {
							if r.site[p] != first[name].site[p] {
								t.Fatalf("%v %s: site %d lnL %v differs from %v's %v", mode, name, p, r.site[p], SSE, first[name].site[p])
							}
							if math.Abs(r.site[p]-serial[name].site[p]) > tol*math.Abs(serial[name].site[p]) {
								t.Fatalf("%v %s: site %d lnL %v, serial %v", mode, name, p, r.site[p], serial[name].site[p])
							}
						}
					}
				}
			})
		}
	}
}

// evalVariants evaluates the problem unscaled, with DestScaleWrite on every
// operation, and then with DestScaleRead of those same factors.
func evalVariants(t *testing.T, e engine.Engine, tr *tree.Tree, m *substmodel.Model,
	rates *substmodel.SiteRates, ps *seqgen.PatternSet) map[string]evalResult {
	t.Helper()
	root := tr.FullSchedule().Root
	cum := tr.TipCount - 1 // driveEngine's cumulative buffer: one past the per-op ones
	out := map[string]evalResult{}
	record := func(name string, lnL float64, cumBuf int) {
		site, err := e.SiteLogLikelihoods(root, cumBuf)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = evalResult{lnL, site}
	}
	record("unscaled", driveEngine(t, e, tr, m, rates, ps, true, false), engine.None)
	record("scale-write", driveEngine(t, e, tr, m, rates, ps, true, true), cum)
	if err := e.UpdatePartials(scheduleOps(tr, noScale, ownScale)); err != nil {
		t.Fatal(err)
	}
	lnL, err := e.CalculateRootLogLikelihoods(root, cum)
	if err != nil {
		t.Fatal(err)
	}
	record("scale-read", lnL, cum)
	if w, r := out["scale-write"].lnL, out["scale-read"].lnL; math.Abs(w-r) > 1e-4*math.Abs(w) {
		t.Errorf("DestScaleRead lnL %v does not reproduce DestScaleWrite lnL %v", r, w)
	}
	return out
}

// countingKernels wraps an engine's bound kernels to count launches.
func countingKernels(e *Engine[float64], launches *atomic.Int64) {
	k := e.kern
	e.kern.PartialsPartials = func(dest, p1, m1, p2, m2 []float64, d kernels.Dims, lo, hi int) {
		launches.Add(1)
		k.PartialsPartials(dest, p1, m1, p2, m2, d, lo, hi)
	}
	e.kern.StatesPartials = func(dest []float64, s1 []int32, m1 []float64, p2, m2 []float64, d kernels.Dims, lo, hi int) {
		launches.Add(1)
		k.StatesPartials(dest, s1, m1, p2, m2, d, lo, hi)
	}
	e.kern.StatesStates = func(dest []float64, s1 []int32, m1 []float64, s2 []int32, m2 []float64, d kernels.Dims, lo, hi int) {
		launches.Add(1)
		k.StatesStates(dest, s1, m1, s2, m2, d, lo, hi)
	}
}

// TestInvalidOpFailsBatchBeforeAnyKernel is the resolve-once regression
// test: operations are validated and resolved in one pass ahead of
// execution, so an invalid operation anywhere in the list — here the last —
// must fail the whole batch with no kernel launched and no destination
// touched.
func TestInvalidOpFailsBatchBeforeAnyKernel(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	good := scheduleOps(tr, noScale, noScale)
	last := len(good) - 1
	invalid := map[string]func(op *engine.Operation){
		"dest out of range":    func(op *engine.Operation) { op.Dest = 999 },
		"dest is a tip":        func(op *engine.Operation) { op.Dest = 0 },
		"child out of range":   func(op *engine.Operation) { op.Child2 = -2 },
		"matrix out of range":  func(op *engine.Operation) { op.Child1Mat = 999 },
		"scale write range":    func(op *engine.Operation) { op.DestScaleWrite = 999 },
		"scale read unwritten": func(op *engine.Operation) { op.DestScaleRead = 3 },
	}
	for _, mode := range Modes() {
		for name, breakOp := range invalid {
			eng, err := New(testConfig(tr, 4, ps.PatternCount(), 4, false), mode)
			if err != nil {
				t.Fatal(err)
			}
			e := eng.(*Engine[float64])
			driveEngine(t, e, tr, m, rates, ps, true, false)
			before, err := e.GetPartials(good[0].Dest)
			if err != nil {
				t.Fatal(err)
			}
			// New branch lengths: a batch that ran would change every partial.
			for i := range e.Matrices {
				if e.Matrices[i] != nil {
					if err := e.UpdateTransitionMatrices(0, []int{i}, []float64{0.9}); err != nil {
						t.Fatal(err)
					}
				}
			}
			var launches atomic.Int64
			countingKernels(e, &launches)
			bad := append([]engine.Operation(nil), good...)
			breakOp(&bad[last])
			if err := e.UpdatePartials(bad); err == nil {
				t.Errorf("%v, %s: batch accepted", mode, name)
			}
			if n := launches.Load(); n != 0 {
				t.Errorf("%v, %s: %d kernels ran before the batch failed", mode, name, n)
			}
			after, err := e.GetPartials(good[0].Dest)
			if err != nil {
				t.Fatal(err)
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("%v, %s: destination %d modified by a failed batch", mode, name, good[0].Dest)
				}
			}
			// The same engine still runs the valid list.
			if err := e.UpdatePartials(good); err != nil {
				t.Errorf("%v, %s: valid batch after a failed one: %v", mode, name, err)
			}
			if launches.Load() == 0 {
				t.Errorf("%v, %s: valid batch launched no kernels", mode, name)
			}
			e.Close()
		}
	}
}

// TestChildMustPrecedeItsReader pins the submission-order contract of the
// single resolve pass: a child that holds no data must be the destination of
// an earlier listed operation, not of a later one.
func TestChildMustPrecedeItsReader(t *testing.T) {
	tr, err := tree.Random(rand.New(rand.NewSource(3)), 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 8
	e := aliasedEngine(t, tr, Serial, patterns)
	defer e.Close()
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for i := 0; i < tr.TipCount; i++ {
		if err := e.SetTipPartials(i, ones(patterns*4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tr.NodeCount(); i++ {
		if err := e.SetTransitionMatrix(i, ones(2*16)); err != nil {
			t.Fatal(err)
		}
	}
	op := func(dest, c1, c2 int) engine.Operation {
		return engine.Operation{Dest: dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2}
	}
	child, parent := op(4, 0, 1), op(5, 4, 2)
	if err := e.UpdatePartials([]engine.Operation{parent, child}); err == nil {
		t.Error("operation reading a buffer only a later operation computes was accepted")
	}
	if err := e.UpdatePartials([]engine.Operation{child, parent}); err != nil {
		t.Errorf("dependency-ordered list rejected: %v", err)
	}
}

// TestResubmissionDoesNotAllocate extends the public-API AllocsPerRun guard
// (TestUpdatePartialsDoesNotAllocate) to the engine: once the resolved-op
// scratch is warm, resubmitting a schedule allocates nothing on the
// reuse-filtered skip path, nothing on the serial execution path, and nothing
// when the pool modes run the batch as two slabs on their workers.
func TestResubmissionDoesNotAllocate(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	ops := scheduleOps(tr, noScale, noScale)
	for _, reuseOn := range []bool{true, false} {
		for _, mode := range []Mode{Serial, SSE, ThreadPool, ThreadPoolHybrid} {
			cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
			cfg.Threads, cfg.MinPatternsWork = 2, 1 // force threading
			cfg.Reuse = reuseOn
			e, err := New(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			driveEngine(t, e, tr, m, rates, ps, true, false) // warm up
			var sink error
			allocs := testing.AllocsPerRun(50, func() { sink = e.UpdatePartials(ops) })
			if sink != nil {
				t.Fatal(sink)
			}
			if allocs != 0 {
				t.Errorf("%v reuse=%v: UpdatePartials allocates %.1f times per resubmission, want 0", mode, reuseOn, allocs)
			}
			if reuseOn {
				if st := e.(*Engine[float64]).ReuseStats(); st.OpHits == 0 {
					t.Errorf("%v: reuse filter skipped nothing; the skip path was not exercised", mode)
				}
			}
			e.Close()
		}
	}
}

// TestRootLikelihoodDoesNotAllocate pins the engine-owned site scratch:
// integrating the root allocates nothing once warm — inline, and as a slab
// phase on the pool modes' workers — while SiteLogLikelihoods still hands out
// a slice the caller owns.
func TestRootLikelihoodDoesNotAllocate(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	for _, mode := range []Mode{Serial, ThreadPool, ThreadPoolHybrid} {
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Threads, cfg.MinPatternsWork = 2, 1 // force threading
		e, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		want := driveEngine(t, e, tr, m, rates, ps, true, false)
		root := tr.FullSchedule().Root
		var got float64
		if allocs := testing.AllocsPerRun(50, func() { got, _ = e.CalculateRootLogLikelihoods(root, engine.None) }); allocs != 0 {
			t.Errorf("%v: CalculateRootLogLikelihoods allocates %.1f times per call, want 0", mode, allocs)
		}
		if got != want {
			t.Errorf("%v: lnL %v on the warm scratch, %v cold", mode, got, want)
		}
		a, err := e.SiteLogLikelihoods(root, engine.None)
		if err != nil {
			t.Fatal(err)
		}
		keep := append([]float64(nil), a...)
		if _, err := e.CalculateRootLogLikelihoods(root, engine.None); err != nil {
			t.Fatal(err)
		}
		b, err := e.SiteLogLikelihoods(root, engine.None)
		if err != nil {
			t.Fatal(err)
		}
		if &a[0] == &b[0] {
			t.Errorf("%v: SiteLogLikelihoods returned the same backing array twice", mode)
		}
		for i := range a {
			if a[i] != keep[i] {
				t.Fatalf("%v: a returned site slice changed under a later call at %d", mode, i)
			}
		}
		e.Close()
	}
}
