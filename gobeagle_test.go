package gobeagle

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// evaluateTree drives a full tree evaluation through the public API and
// returns the root log likelihood.
func evaluateTree(t *testing.T, inst *Instance, tr *tree.Tree, m *substmodel.Model,
	rates *substmodel.SiteRates, ps *seqgen.PatternSet) float64 {
	t.Helper()
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		inst.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		inst.SetCategoryRates(rates.Rates),
		inst.SetCategoryWeights(rates.Weights),
		inst.SetStateFrequencies(m.Frequencies),
		inst.SetPatternWeights(ps.Weights),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tr.TipCount; i++ {
		if err := inst.SetTipStates(i, ps.TipStates(i)); err != nil {
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
	return lnL
}

func instanceConfig(tr *tree.Tree, stateCount, patterns, cats, resourceID int, flags Flags) Config {
	return Config{
		TipCount:        tr.TipCount,
		PartialsBuffers: tr.NodeCount(),
		MatrixBuffers:   tr.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    tr.NodeCount() + 1,
		StateCount:      stateCount,
		PatternCount:    patterns,
		CategoryCount:   cats,
		ResourceID:      resourceID,
		Flags:           flags,
	}
}

func TestResourceList(t *testing.T) {
	device.ResetPlatforms()
	rs := ResourceList()
	if len(rs) != 7 {
		t.Fatalf("resource count %d, want 7 (host + 6 devices)", len(rs))
	}
	if rs[0].Kind != ResourceCPU || rs[0].Framework != "" || rs[0].Device() != nil {
		t.Fatalf("resource 0 must be the host CPU: %+v", rs[0])
	}
	for i, r := range rs {
		if r.ID != i {
			t.Fatalf("resource %d has ID %d", i, r.ID)
		}
		if r.String() == "" {
			t.Fatal("empty resource string")
		}
	}
	// The Quadro P5000 must be visible under both frameworks.
	if _, err := FindResource("Quadro P5000", "CUDA"); err != nil {
		t.Error(err)
	}
	if _, err := FindResource("Quadro P5000", "OpenCL"); err != nil {
		t.Error(err)
	}
	if _, err := FindResource("nonexistent", ""); err == nil {
		t.Error("expected error for unknown resource")
	}
}

func TestInstanceAcrossAllResourcesAgree(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(1))
	tr, _ := tree.Random(rng, 8, 0.2)
	m, _ := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	rates, _ := substmodel.GammaRates(0.7, 4)
	align, _ := seqgen.Simulate(rng, tr, m, rates, 250)
	ps := seqgen.CompressPatterns(align)

	var want float64
	for _, r := range ResourceList() {
		inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, r.ID, 0))
		if err != nil {
			t.Fatalf("resource %s: %v", r.Name, err)
		}
		got := evaluateTree(t, inst, tr, m, rates, ps)
		if err := inst.Finalize(); err != nil {
			t.Fatal(err)
		}
		if r.ID == 0 {
			want = got
			continue
		}
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Errorf("resource %s (%s): lnL %v want %v", r.Name, r.Framework, got, want)
		}
	}
}

func TestImplementationSelection(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(2))
	tr, _ := tree.Random(rng, 4, 0.1)

	cases := []struct {
		resourceName string
		framework    string
		flags        Flags
		wantSub      string
	}{
		{"", "", 0, "CPU-SSE"},
		{"", "", FlagVectorNone, "CPU-serial"},
		{"", "", FlagVectorSSE, "CPU-SSE"},
		{"", "", FlagThreadingFutures, "CPU-futures"},
		{"", "", FlagThreadingThreadCreate, "CPU-threadcreate"},
		{"", "", FlagThreadingThreadPool, "CPU-threadpool"},
		{"", "", FlagThreadingThreadPoolHybrid, "threadpool-hybrid"},
		{"Quadro P5000", "CUDA", 0, "CUDA"},
		{"Radeon R9 Nano", "OpenCL", 0, "OpenCL-GPU"},
		{"Xeon E5-2680v4 x2", "OpenCL", 0, "OpenCL-x86"},
		{"Xeon E5-2680v4 x2", "OpenCL", FlagKernelGPU, "OpenCL-GPU"},
		{"Xeon Phi 7210", "OpenCL", 0, "OpenCL-x86"},
		{"Quadro P5000", "CUDA", FlagVectorNone, "CUDA"},
		// FlagVectorNone asks for the unvectorised reference, so it
		// excludes every vectorised or threaded selection.
		{"", "", FlagVectorNone | FlagVectorSSE, ""},
		{"", "", FlagVectorNone | FlagThreadingThreadPool, ""},
	}
	for _, c := range cases {
		id := 0
		if c.resourceName != "" {
			r, err := FindResource(c.resourceName, c.framework)
			if err != nil {
				t.Fatal(err)
			}
			id = r.ID
		}
		inst, err := NewInstance(instanceConfig(tr, 4, 50, 1, id, c.flags))
		if c.wantSub == "" {
			if err == nil {
				inst.Finalize()
				t.Errorf("flags %v: created %s, want an error", c.flags, inst.Implementation())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got := inst.Implementation(); !strings.Contains(got, c.wantSub) {
			t.Errorf("resource %q flags %v: implementation %q, want containing %q",
				c.resourceName, c.flags, got, c.wantSub)
		}
		inst.Finalize()
	}
}

// TestImplementationsListWhatTheRegistryBuilds holds every resource's
// Implementations() to the registry: an instance built with either kernel
// flag setting runs a listed implementation, and on a device every listed
// variant is built by one of the settings.
func TestImplementationsListWhatTheRegistryBuilds(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(2))
	tr, _ := tree.Random(rng, 4, 0.1)
	for _, r := range ResourceList() {
		listed := map[string]bool{}
		for _, name := range r.Implementations() {
			listed[name] = true
		}
		built := map[string]bool{}
		for _, flags := range []Flags{0, FlagKernelGPU} {
			inst, err := NewInstance(instanceConfig(tr, 4, 50, 1, r.ID, flags))
			if err != nil {
				t.Fatalf("%s flags %v: %v", r, flags, err)
			}
			name, _, _ := strings.Cut(inst.Implementation(), ": ")
			inst.Finalize()
			if !listed[name] {
				t.Errorf("%s flags %v: built %q, not in %v", r, flags, name, r.Implementations())
			}
			built[name] = true
		}
		if r.Device() == nil {
			continue
		}
		for name := range listed {
			if !built[name] {
				t.Errorf("%s lists %q, which no kernel flag setting builds", r, name)
			}
		}
	}
}

func TestNewInstanceErrors(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(3))
	tr, _ := tree.Random(rng, 4, 0.1)

	if _, err := NewInstance(instanceConfig(tr, 4, 50, 1, 999, 0)); err == nil {
		t.Error("expected error for out-of-range resource")
	}
	if _, err := NewInstance(instanceConfig(tr, 4, 50, 1, 0, FlagThreadingFutures|FlagThreadingThreadPool)); err == nil {
		t.Error("expected error for conflicting threading flags")
	}
	bad := instanceConfig(tr, 4, 50, 1, 0, 0)
	bad.TipCount = 1
	if _, err := NewInstance(bad); err == nil {
		t.Error("expected error for too few tips")
	}
	bad2 := instanceConfig(tr, 4, 0, 1, 0, 0)
	if _, err := NewInstance(bad2); err == nil {
		t.Error("expected error for zero patterns")
	}
}

func TestSinglePrecisionFlag(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(4))
	tr, _ := tree.Random(rng, 6, 0.1)
	m := substmodel.NewJC69()
	rates := substmodel.SingleRate()
	align, _ := seqgen.Simulate(rng, tr, m, rates, 150)
	ps := seqgen.CompressPatterns(align)

	iD, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer iD.Finalize()
	iS, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 1, 0, FlagPrecisionSingle))
	if err != nil {
		t.Fatal(err)
	}
	defer iS.Finalize()
	d := evaluateTree(t, iD, tr, m, rates, ps)
	s := evaluateTree(t, iS, tr, m, rates, ps)
	if rel := math.Abs(d-s) / math.Abs(d); rel > 1e-4 {
		t.Fatalf("precision divergence %v", rel)
	}
}

func TestScalingThroughPublicAPI(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(5))
	tr, _ := tree.Random(rng, 20, 0.3)
	m := substmodel.NewJC69()
	rates := substmodel.SingleRate()
	align, _ := seqgen.Simulate(rng, tr, m, rates, 80)
	ps := seqgen.CompressPatterns(align)

	inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	plain := evaluateTree(t, inst, tr, m, rates, ps)

	// Re-run with per-operation rescaling.
	sched := tr.FullSchedule()
	ops := make([]Operation, len(sched.Ops))
	scaleBufs := make([]int, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = Operation{
			Destination: op.Dest, DestScaleWrite: i, DestScaleRead: None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
		scaleBufs[i] = i
	}
	if err := inst.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	cum := len(sched.Ops)
	if err := inst.ResetScaleFactors(cum); err != nil {
		t.Fatal(err)
	}
	if err := inst.AccumulateScaleFactors(scaleBufs, cum); err != nil {
		t.Fatal(err)
	}
	scaled, err := inst.CalculateRootLogLikelihoods(sched.Root, cum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain-scaled) > 1e-8*math.Abs(plain) {
		t.Fatalf("scaled %v plain %v", scaled, plain)
	}
}

func TestFlagsString(t *testing.T) {
	if Flags(0).String() != "none" {
		t.Fatal("zero flags must render as none")
	}
	s := (FlagPrecisionSingle | FlagThreadingThreadPool).String()
	if !strings.Contains(s, "PRECISION_SINGLE") || !strings.Contains(s, "THREAD_POOL") {
		t.Fatalf("flags string %q", s)
	}
	// Every flag renders as one name of its own.
	seen := map[string]Flags{}
	for f := Flags(1); f < flagEnd; f <<= 1 {
		name := f.String()
		if name == "" || name == "none" || strings.Contains(name, "|") {
			t.Errorf("flag %#x renders as %q, want one name", uint64(f), name)
		}
		if g, dup := seen[name]; dup {
			t.Errorf("flags %#x and %#x both render as %q", uint64(g), uint64(f), name)
		}
		seen[name] = f
	}
}

func TestCustomFactoryPlugin(t *testing.T) {
	device.ResetPlatforms()
	// A plugin factory can intercept instance creation for a resource — the
	// paper's runtime plugin system (§IV-C).
	called := false
	RegisterFactory(&Factory{
		Name:     "test-plugin",
		Priority: 100,
		Build: func(cfg engine.Config, rsc *Resource, flags Flags) (engine.Engine, error) {
			called = true
			return nil, nil // decline; fall through to the built-ins
		},
	})
	rng := rand.New(rand.NewSource(6))
	tr, _ := tree.Random(rng, 4, 0.1)
	inst, err := NewInstance(instanceConfig(tr, 4, 10, 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	inst.Finalize()
	if !called {
		t.Fatal("custom factory was not consulted")
	}
	if len(Factories()) < 3 {
		t.Fatal("factories missing from registry")
	}
	if Factories()[0].Name != "test-plugin" {
		t.Fatal("priority ordering broken")
	}
}

func TestResourceKindString(t *testing.T) {
	if ResourceCPU.String() != "CPU" || ResourceGPU.String() != "GPU" || ResourceAccelerator.String() != "Accelerator" {
		t.Fatal("kind names wrong")
	}
	if ResourceKind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestThreadsRestrictionOnOpenCLCPU(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(7))
	tr, _ := tree.Random(rng, 4, 0.1)
	r, err := FindResource("Xeon E5-2680v4 x2", "OpenCL")
	if err != nil {
		t.Fatal(err)
	}
	cfg := instanceConfig(tr, 4, 50, 1, r.ID, 0)
	cfg.Threads = 4
	inst, err := NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	// Device fission renames the device with its compute-unit count.
	if !strings.Contains(inst.Implementation(), "(4 CU)") {
		t.Fatalf("expected fissioned device, got %q", inst.Implementation())
	}
}
