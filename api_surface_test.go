package gobeagle

import (
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/device"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// TestInstanceSurface exercises the remaining public Instance methods —
// accessors, raw buffer round trips, explicit matrices, per-site outputs and
// edge likelihoods — through the public API.
func TestInstanceSurface(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(55))
	tr, err := tree.ParseNewick("((a:0.1,b:0.2):0.07,(c:0.15,d:0.05):0.09);")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	rates, _ := substmodel.GammaRates(0.7, 2)
	align, _ := seqgen.Simulate(rng, tr, m, rates, 150)
	ps := seqgen.CompressPatterns(align)

	cfg := instanceConfig(tr, 4, ps.PatternCount(), 2, 0, 0)
	cfg.MatrixBuffers = 10
	inst, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()

	// Accessors.
	if inst.Resource().ID != 0 {
		t.Fatalf("resource %+v", inst.Resource())
	}
	if inst.Config().PatternCount != ps.PatternCount() {
		t.Fatal("config accessor broken")
	}
	if inst.DeviceQueue() != nil {
		t.Fatal("host instance must have no device queue")
	}

	// Full evaluation with expanded tips.
	ed, _ := m.Eigen()
	steps := []error{
		inst.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		inst.SetCategoryRates(rates.Rates),
		inst.SetCategoryWeights(rates.Weights),
		inst.SetStateFrequencies(m.Frequencies),
		inst.SetPatternWeights(ps.Weights),
		inst.SetTipPartials(0, ps.TipPartials(0)),
		inst.SetTipPartials(1, ps.TipPartials(1)),
		inst.SetTipPartials(2, ps.TipPartials(2)),
		inst.SetTipPartials(3, ps.TipPartials(3)),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	sched := tr.FullSchedule()
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

	// Per-site log likelihoods sum (weighted) to the total.
	site, err := inst.SiteLogLikelihoods(sched.Root, None)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for p, l := range site {
		sum += ps.Weights[p] * l
	}
	if math.Abs(sum-lnL) > 1e-9*math.Abs(lnL) {
		t.Fatalf("site sum %v vs total %v", sum, lnL)
	}

	// Pulley principle through the public edge call.
	joined := tr.Root.Left.Length + tr.Root.Right.Length
	if err := inst.UpdateTransitionMatrices(0, []int{9}, []float64{joined}); err != nil {
		t.Fatal(err)
	}
	edge, err := inst.CalculateEdgeLogLikelihoods(tr.Root.Left.Index, tr.Root.Right.Index, 9, None)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(edge-lnL) > 1e-9*math.Abs(lnL) {
		t.Fatalf("edge lnL %v vs root %v", edge, lnL)
	}

	// GetPartials / SetPartials round trip.
	got, err := inst.GetPartials(sched.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.SetPartials(sched.Root, got); err != nil {
		t.Fatal(err)
	}
	again, err := inst.GetPartials(sched.Root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("partials round trip mismatch at %d", i)
		}
	}

	// SetTransitionMatrix / GetTransitionMatrix round trip.
	raw := make([]float64, cfg.CategoryCount*16)
	for i := range raw {
		raw[i] = rng.Float64()
	}
	if err := inst.SetTransitionMatrix(8, raw); err != nil {
		t.Fatal(err)
	}
	back, err := inst.GetTransitionMatrix(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if raw[i] != back[i] {
			t.Fatalf("matrix round trip mismatch at %d", i)
		}
	}

	// DeviceQueue present on accelerator-backed instances.
	amd, err := FindResource("Radeon R9 Nano", "OpenCL")
	if err != nil {
		t.Fatal(err)
	}
	devCfg := cfg
	devCfg.ResourceID = amd.ID
	devInst, err := NewInstance(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer devInst.Finalize()
	if devInst.DeviceQueue() == nil {
		t.Fatal("device instance must expose its queue")
	}
}

// TestFinalizeTwiceOnAccelerators pins Finalize's documented contract on the
// device-backed implementations: idempotent, and computation afterwards
// returns an error instead of panicking on released device buffers.
func TestFinalizeTwiceOnAccelerators(t *testing.T) {
	device.ResetPlatforms()
	pr := newReuseProblem(t, 107, 6, 120)
	for _, r := range []struct{ name, framework string }{
		{"Quadro P5000", "CUDA"},
		{"Radeon R9 Nano", "OpenCL"},
	} {
		t.Run(r.framework+"/"+r.name, func(t *testing.T) {
			rsc, err := FindResource(r.name, r.framework)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := NewInstance(pr.config(rsc.ID, 0))
			if err != nil {
				t.Fatal(err)
			}
			pr.setup(t, inst)
			pr.evalFull(t, inst)
			for i := 0; i < 2; i++ {
				if err := inst.Finalize(); err != nil {
					t.Fatalf("Finalize #%d: %v", i+1, err)
				}
			}
			op := pr.tr.FullSchedule().Ops[0]
			err = inst.UpdatePartials([]Operation{{
				Destination: op.Dest, DestScaleWrite: None, DestScaleRead: None,
				Child1: op.Child1, Child1Matrix: op.Child1Mat,
				Child2: op.Child2, Child2Matrix: op.Child2Mat,
			}})
			if err == nil {
				t.Fatal("UpdatePartials after Finalize succeeded")
			}
		})
	}
}
