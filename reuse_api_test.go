package gobeagle

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gobeagle/internal/device"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// reuseProblem is a shared dataset for the incremental re-evaluation tests.
type reuseProblem struct {
	tr    *tree.Tree
	m     *substmodel.Model
	rates *substmodel.SiteRates
	ps    *seqgen.PatternSet
}

func newReuseProblem(t *testing.T, seed int64, tips, sites int) *reuseProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tips, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	rates, _ := substmodel.GammaRates(0.7, 4)
	align, err := seqgen.Simulate(rng, tr, m, rates, sites)
	if err != nil {
		t.Fatal(err)
	}
	return &reuseProblem{tr: tr, m: m, rates: rates, ps: seqgen.CompressPatterns(align)}
}

func (pr *reuseProblem) config(resourceID int, flags Flags) Config {
	cfg := instanceConfig(pr.tr, 4, pr.ps.PatternCount(), 4, resourceID, flags)
	// Two extra matrix buffers for the derivative comparisons.
	cfg.MatrixBuffers = pr.tr.NodeCount() + 2
	return cfg
}

// setup applies the model and data setters once, as an MCMC chain would at
// creation.
func (pr *reuseProblem) setup(t *testing.T, inst *Instance) {
	t.Helper()
	ed, err := pr.m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		inst.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		inst.SetCategoryRates(pr.rates.Rates),
		inst.SetCategoryWeights(pr.rates.Weights),
		inst.SetStateFrequencies(pr.m.Frequencies),
		inst.SetPatternWeights(pr.ps.Weights),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pr.tr.TipCount; i++ {
		if err := inst.SetTipStates(i, pr.ps.TipStates(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// evalFull submits the complete schedule — matrices and partials for the
// whole tree — exactly as the MCMC engine does every proposal, and returns
// the root log likelihood.
func (pr *reuseProblem) evalFull(t *testing.T, inst *Instance) float64 {
	t.Helper()
	sched := pr.tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		t.Fatal(err)
	}
	ops := make([]Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = Operation{
			Destination: op.Dest, DestScaleWrite: None, DestScaleRead: None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	if err := inst.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	lnL, err := inst.CalculateRootLogLikelihoods(sched.Root, None)
	if err != nil {
		t.Fatal(err)
	}
	return lnL
}

// perturb changes one non-root branch length deterministically, simulating
// an accepted branch-length proposal.
func (pr *reuseProblem) perturb(rng *rand.Rand) {
	nodes := pr.tr.Nodes()
	for {
		n := nodes[rng.Intn(len(nodes))]
		if n == pr.tr.Root {
			continue
		}
		n.Length = 0.01 + rng.Float64()*0.5
		return
	}
}

// compareRounds drives both instances through identical proposal rounds and
// requires bit-identical root and site log likelihoods every round. Both
// instances evaluate the same shared tree, so any divergence is the reuse
// cache returning stale or non-identical state.
func compareRounds(t *testing.T, pr *reuseProblem, off, on *Instance, rounds int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		if r > 0 {
			pr.perturb(rng)
		}
		want := pr.evalFull(t, off)
		got := pr.evalFull(t, on)
		if got != want {
			t.Fatalf("round %d: reuse-on lnL %v, reuse-off %v (must be bit-identical)", r, got, want)
		}
		wantSite, err := off.SiteLogLikelihoods(pr.tr.Root.Index, None)
		if err != nil {
			t.Fatal(err)
		}
		gotSite, err := on.SiteLogLikelihoods(pr.tr.Root.Index, None)
		if err != nil {
			t.Fatal(err)
		}
		for p := range wantSite {
			if gotSite[p] != wantSite[p] {
				t.Fatalf("round %d pattern %d: site lnL %v, want %v", r, p, gotSite[p], wantSite[p])
			}
		}
	}
}

// compareDerivatives evaluates branch derivatives on the root's left edge
// through both instances and requires identical results.
func compareDerivatives(t *testing.T, pr *reuseProblem, off, on *Instance) {
	t.Helper()
	nd := pr.tr.NodeCount()
	// The child must be an internal node: the accelerator edge kernel reads
	// expanded partials, and the tips here are set as compact states.
	child := pr.tr.Root.Left
	if child.IsTip() {
		child = pr.tr.Root.Right
	}
	if child.IsTip() {
		t.Fatal("both root children are tips; grow the test tree")
	}
	each := func(inst *Instance) (float64, float64, float64) {
		if err := inst.UpdateTransitionDerivatives(0, []int{nd}, []int{nd + 1}, []float64{child.Length}); err != nil {
			t.Fatal(err)
		}
		lnL, d1, d2, err := inst.CalculateEdgeDerivatives(pr.tr.Root.Index, child.Index, child.Index, nd, nd+1, None)
		if err != nil {
			t.Fatal(err)
		}
		return lnL, d1, d2
	}
	wantL, wantD1, wantD2 := each(off)
	gotL, gotD1, gotD2 := each(on)
	if gotL != wantL || gotD1 != wantD1 || gotD2 != wantD2 {
		t.Fatalf("derivatives reuse-on (%v, %v, %v), reuse-off (%v, %v, %v)",
			gotL, gotD1, gotD2, wantL, wantD1, wantD2)
	}
}

// TestReuseEquivalenceAcrossCPUStrategies: with FlagReuse, repeated
// full-schedule submissions over a sequence of branch-length proposals must
// yield bit-identical root likelihoods, site likelihoods and derivatives to
// a reuse-off instance, on every CPU scheduling strategy.
func TestReuseEquivalenceAcrossCPUStrategies(t *testing.T) {
	device.ResetPlatforms()
	strategies := []struct {
		name  string
		flags Flags
	}{
		{"default", 0},
		{"serial", FlagVectorNone},
		{"sse", FlagVectorSSE},
		{"futures", FlagThreadingFutures},
		{"threadcreate", FlagThreadingThreadCreate},
		{"threadpool", FlagThreadingThreadPool},
		{"hybrid", FlagThreadingThreadPoolHybrid},
	}
	pr := newReuseProblem(t, 101, 10, 300)
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			off, err := NewInstance(pr.config(0, s.flags))
			if err != nil {
				t.Fatal(err)
			}
			defer off.Finalize()
			on, err := NewInstance(pr.config(0, s.flags|FlagReuse))
			if err != nil {
				t.Fatal(err)
			}
			defer on.Finalize()
			pr.setup(t, off)
			pr.setup(t, on)
			compareRounds(t, pr, off, on, 8, 202)
			compareDerivatives(t, pr, off, on)

			rs := on.ReuseStats()
			if !rs.Enabled || rs.OpHits == 0 || rs.MatrixHits == 0 {
				t.Fatalf("reuse instance never hit: %+v", rs)
			}
			if offRS := off.ReuseStats(); offRS.Enabled {
				t.Fatalf("reuse-off instance reports enabled stats: %+v", offRS)
			}
		})
	}
}

// TestReuseEquivalenceOnAccelerators runs the same equivalence check on the
// modeled CUDA and OpenCL backends.
func TestReuseEquivalenceOnAccelerators(t *testing.T) {
	device.ResetPlatforms()
	resources := []struct {
		name      string
		framework string
	}{
		{"Quadro P5000", "CUDA"},
		{"Radeon R9 Nano", "OpenCL"},
		{"Xeon E5-2680v4 x2", "OpenCL"},
	}
	pr := newReuseProblem(t, 103, 8, 200)
	for _, r := range resources {
		t.Run(r.framework+"/"+r.name, func(t *testing.T) {
			rsc, err := FindResource(r.name, r.framework)
			if err != nil {
				t.Fatal(err)
			}
			off, err := NewInstance(pr.config(rsc.ID, 0))
			if err != nil {
				t.Fatal(err)
			}
			defer off.Finalize()
			on, err := NewInstance(pr.config(rsc.ID, FlagReuse))
			if err != nil {
				t.Fatal(err)
			}
			defer on.Finalize()
			pr.setup(t, off)
			pr.setup(t, on)
			compareRounds(t, pr, off, on, 6, 204)
			compareDerivatives(t, pr, off, on)
			if rs := on.ReuseStats(); !rs.Enabled || rs.OpHits == 0 {
				t.Fatalf("accelerator reuse never hit: %+v", rs)
			}
		})
	}
}

// TestReuseMultiDeviceRebalance drives a rebalancing CPU + CUDA + OpenCL
// instance with FlagReuse through repeated proposals: migrations move
// per-pattern state between backends mid-stream and must carry the reuse
// cache validly. Rebalance decisions are timing-driven and may differ
// between the two instances (regrouping the per-backend partial sums), so
// the comparison is against a serial reference within float tolerance
// rather than bit-identical.
func TestReuseMultiDeviceRebalance(t *testing.T) {
	device.ResetPlatforms()
	pr := newReuseProblem(t, 105, 8, 400)
	ids := []int{0}
	for _, name := range []string{"Quadro P5000", "Radeon R9 Nano"} {
		r, err := FindResource(name, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}

	ref, err := NewInstance(pr.config(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Finalize()
	cfg := pr.config(0, FlagRebalance|FlagReuse)
	cfg.RebalanceInterval = 2
	multi, err := NewMultiDeviceInstance(cfg, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Finalize()
	pr.setup(t, ref)
	pr.setup(t, multi)

	rng := rand.New(rand.NewSource(206))
	for r := 0; r < 12; r++ {
		if r > 0 {
			pr.perturb(rng)
		}
		want := pr.evalFull(t, ref)
		got := pr.evalFull(t, multi)
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Fatalf("round %d: multi-device reuse lnL %v, serial reference %v", r, got, want)
		}
	}
	if rs := multi.ReuseStats(); !rs.Enabled || rs.OpHits == 0 {
		t.Fatalf("multi-device reuse never hit: %+v", rs)
	}
}

// TestReuseConcurrentInstances exercises independent FlagReuse instances
// from concurrent goroutines (one instance per goroutine, the library's
// concurrency contract) under the race detector.
func TestReuseConcurrentInstances(t *testing.T) {
	device.ResetPlatforms()
	pr := newReuseProblem(t, 107, 8, 120)
	want := func() float64 {
		inst, err := NewInstance(pr.config(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Finalize()
		pr.setup(t, inst)
		return pr.evalFull(t, inst)
	}()

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		inst, err := NewInstance(pr.config(0, FlagReuse|FlagThreadingThreadPool))
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Finalize()
		pr.setup(t, inst)
		wg.Add(1)
		go func(w int, inst *Instance) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				got := 0.0
				sched := pr.tr.FullSchedule()
				mats := make([]int, len(sched.Matrices))
				lens := make([]float64, len(sched.Matrices))
				for i, mu := range sched.Matrices {
					mats[i], lens[i] = mu.Matrix, mu.Length
				}
				if errs[w] = inst.UpdateTransitionMatrices(0, mats, lens); errs[w] != nil {
					return
				}
				ops := make([]Operation, len(sched.Ops))
				for i, op := range sched.Ops {
					ops[i] = Operation{
						Destination: op.Dest, DestScaleWrite: None, DestScaleRead: None,
						Child1: op.Child1, Child1Matrix: op.Child1Mat,
						Child2: op.Child2, Child2Matrix: op.Child2Mat,
					}
				}
				if errs[w] = inst.UpdatePartials(ops); errs[w] != nil {
					return
				}
				got, errs[w] = inst.CalculateRootLogLikelihoods(sched.Root, None)
				if errs[w] != nil {
					return
				}
				if got != want {
					panic("concurrent reuse instance diverged")
				}
			}
		}(w, inst)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestUpdatePartialsDoesNotAllocate pins the //beagle:noalloc contract of
// the public submission path at runtime: once warmed up, resubmitting a
// schedule (here fully clean, so every operation is skipped) must not
// allocate. The allocguard analyzer fails the build if this reference to
// UpdatePartials disappears.
func TestUpdatePartialsDoesNotAllocate(t *testing.T) {
	device.ResetPlatforms()
	pr := newReuseProblem(t, 109, 8, 100)
	inst, err := NewInstance(pr.config(0, FlagReuse))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	pr.setup(t, inst)
	pr.evalFull(t, inst) // warm up: compute everything once

	sched := pr.tr.FullSchedule()
	ops := make([]Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = Operation{
			Destination: op.Dest, DestScaleWrite: None, DestScaleRead: None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	var sink error
	allocs := testing.AllocsPerRun(50, func() {
		sink = inst.UpdatePartials(ops)
	})
	if sink != nil {
		t.Fatal(sink)
	}
	if allocs != 0 {
		t.Errorf("UpdatePartials allocates %.1f times per clean resubmission, want 0", allocs)
	}
}

// TestReuseStatsJSON pins ReuseStats' wire form, keys in order, and its hit
// rates, which clients reading the JSON depend on.
func TestReuseStatsJSON(t *testing.T) {
	rs := ReuseStats{Enabled: true, OpHits: 3, OpMisses: 1, MatrixHits: 1, MatrixMisses: 3, Invalidations: 5}
	got, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"enabled":true,"op_hits":3,"op_misses":1,"matrix_hits":1,"matrix_misses":3,"invalidations":5}`
	if string(got) != want {
		t.Errorf("ReuseStats JSON = %s, want %s", got, want)
	}
	if rs.OpHitRate() != 0.75 || rs.MatrixHitRate() != 0.25 || (ReuseStats{}).OpHitRate() != 0 {
		t.Errorf("hit rates %v, %v; want 0.75, 0.25 and 0 with nothing submitted", rs.OpHitRate(), rs.MatrixHitRate())
	}
}
