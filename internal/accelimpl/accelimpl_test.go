package accelimpl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// driveEngine loads a problem and returns the root log likelihood (shared
// shape with the cpuimpl tests; duplicated to keep packages independent).
func driveEngine(t *testing.T, e engine.Engine, tr *tree.Tree, m *substmodel.Model,
	rates *substmodel.SiteRates, ps *seqgen.PatternSet, compactTips, scaled bool) float64 {
	t.Helper()
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		e.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		e.SetCategoryRates(rates.Rates),
		e.SetCategoryWeights(rates.Weights),
		e.SetStateFrequencies(m.Frequencies),
		e.SetPatternWeights(ps.Weights),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	for i := 0; i < tr.TipCount; i++ {
		if compactTips {
			if err := e.SetTipStates(i, ps.TipStates(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := e.SetTipPartials(i, ps.TipPartials(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched := tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i] = mu.Matrix
		lens[i] = mu.Length
	}
	if err := e.UpdateTransitionMatrices(0, mats, lens); err != nil {
		t.Fatal(err)
	}
	ops := make([]engine.Operation, len(sched.Ops))
	scaleBufs := make([]int, 0, len(sched.Ops))
	for i, op := range sched.Ops {
		sw := engine.None
		if scaled {
			sw = i
			scaleBufs = append(scaleBufs, i)
		}
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: sw, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	if err := e.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	cum := engine.None
	if scaled {
		cum = len(sched.Ops)
		if err := e.ResetScaleFactors(cum); err != nil {
			t.Fatal(err)
		}
		if err := e.AccumulateScaleFactors(scaleBufs, cum); err != nil {
			t.Fatal(err)
		}
	}
	lnL, err := e.CalculateRootLogLikelihoods(sched.Root, cum)
	if err != nil {
		t.Fatal(err)
	}
	return lnL
}

func testConfig(tr *tree.Tree, stateCount, patterns, cats int, single bool) engine.Config {
	return engine.Config{
		TipCount:        tr.TipCount,
		PartialsBuffers: tr.NodeCount(),
		MatrixBuffers:   tr.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    tr.NodeCount() + 1,
		Dims: kernels.Dims{
			StateCount:    stateCount,
			PatternCount:  patterns,
			CategoryCount: cats,
		},
		SinglePrecision: single,
	}
}

type variantCase struct {
	name    string
	variant Variant
	devName string
	fw      device.FrameworkName
}

var variantCases = []variantCase{
	{"CUDA on Quadro P5000", CUDA, "Quadro P5000", device.CUDA},
	{"OpenCL-GPU on Quadro P5000", OpenCLGPU, "Quadro P5000", device.OpenCL},
	{"OpenCL-GPU on Radeon R9 Nano", OpenCLGPU, "Radeon R9 Nano", device.OpenCL},
	{"OpenCL-GPU on FirePro S9170", OpenCLGPU, "FirePro S9170", device.OpenCL},
	{"OpenCL-x86 on Xeon E5-2680v4 x2", OpenCLX86, "Xeon E5-2680v4 x2", device.OpenCL},
	{"OpenCL-x86 on Xeon Phi 7210", OpenCLX86, "Xeon Phi 7210", device.OpenCL},
}

func newCase(t *testing.T, vc variantCase, cfg engine.Config) engine.Engine {
	t.Helper()
	dev, err := device.FindDevice(vc.fw, vc.devName)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, vc.variant, dev)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// referenceLnL computes the problem on the trusted CPU serial engine.
func referenceLnL(t *testing.T, tr *tree.Tree, m *substmodel.Model, rates *substmodel.SiteRates,
	ps *seqgen.PatternSet, compact bool, stateCount, cats int) float64 {
	t.Helper()
	cpu, err := cpuimpl.New(testConfig(tr, stateCount, ps.PatternCount(), cats, false), cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Close()
	return driveEngine(t, cpu, tr, m, rates, ps, compact, false)
}

func TestAllVariantsMatchCPUSerialNucleotide(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(42))
	tr, _ := tree.Random(rng, 10, 0.15)
	m, _ := substmodel.NewHKY85(2.5, []float64{0.3, 0.2, 0.25, 0.25})
	rates, _ := substmodel.GammaRates(0.5, 4)
	align, _ := seqgen.Simulate(rng, tr, m, rates, 400)
	ps := seqgen.CompressPatterns(align)
	want := referenceLnL(t, tr, m, rates, ps, true, 4, 4)

	for _, vc := range variantCases {
		e := newCase(t, vc, testConfig(tr, 4, ps.PatternCount(), 4, false))
		got := driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Errorf("%s: lnL %v want %v", vc.name, got, want)
		}
	}
}

func TestAllVariantsMatchCPUSerialCodon(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(7))
	tr, _ := tree.Random(rng, 6, 0.1)
	m, _ := substmodel.NewGY94(2, 0.3, nil)
	rates := substmodel.SingleRate()
	ps, _ := seqgen.RandomPatterns(rng, tr.TipCount, 61, 50)
	want := referenceLnL(t, tr, m, rates, ps, true, 61, 1)

	for _, vc := range variantCases {
		e := newCase(t, vc, testConfig(tr, 61, ps.PatternCount(), 1, false))
		got := driveEngine(t, e, tr, m, rates, ps, true, false)
		e.Close()
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Errorf("%s codon: lnL %v want %v", vc.name, got, want)
		}
	}
}

func TestPartialsTipsAndScalingOnDevice(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(13))
	tr, _ := tree.Random(rng, 16, 0.3)
	m := substmodel.NewJC69()
	rates := substmodel.SingleRate()
	align, _ := seqgen.Simulate(rng, tr, m, rates, 150)
	ps := seqgen.CompressPatterns(align)
	want := referenceLnL(t, tr, m, rates, ps, false, 4, 1)

	vc := variantCases[2] // OpenCL-GPU on R9 Nano
	e1 := newCase(t, vc, testConfig(tr, 4, ps.PatternCount(), 1, false))
	plain := driveEngine(t, e1, tr, m, rates, ps, false, false)
	e1.Close()
	e2 := newCase(t, vc, testConfig(tr, 4, ps.PatternCount(), 1, false))
	scaled := driveEngine(t, e2, tr, m, rates, ps, false, true)
	e2.Close()
	if math.Abs(plain-want) > 1e-8*math.Abs(want) {
		t.Errorf("plain lnL %v want %v", plain, want)
	}
	if math.Abs(scaled-want) > 1e-8*math.Abs(want) {
		t.Errorf("scaled lnL %v want %v", scaled, want)
	}
}

// TestFMAOffMatchesOn: the Table IV knob lives only in the cost model. A
// build without FMA on FMA hardware returns the same bits and is charged more
// modeled time for the same calls.
func TestFMAOffMatchesOn(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(19))
	tr, _ := tree.Random(rng, 8, 0.1)
	m := substmodel.NewJC69()
	rates := substmodel.SingleRate()
	ps, _ := seqgen.RandomPatterns(rng, 8, 4, 100)

	cfgOn := testConfig(tr, 4, 100, 1, false)
	cfgOff := cfgOn
	cfgOff.DisableFMA = true
	vc := variantCases[2]
	run := func(cfg engine.Config) (float64, time.Duration) {
		e := newCase(t, vc, cfg)
		defer e.Close()
		lnL := driveEngine(t, e, tr, m, rates, ps, true, false)
		return lnL, e.(interface{ Queue() *device.Queue }).Queue().ModeledTime()
	}
	lnOn, timeOn := run(cfgOn)
	lnOff, timeOff := run(cfgOff)
	if math.Float64bits(lnOn) != math.Float64bits(lnOff) {
		t.Fatalf("FMA changed the result: %v vs %v", lnOn, lnOff)
	}
	if timeOff <= timeOn {
		t.Fatalf("FMA off modeled %v, on %v: the no-FMA rate was not charged", timeOff, timeOn)
	}
}

// TestFMAOffChargesScaleAccumulation: the scale-accumulation kernel is a
// pattern kernel like any other, so a build without FMA on FMA hardware is
// charged the no-FMA rate for it too.
func TestFMAOffChargesScaleAccumulation(t *testing.T) {
	device.ResetPlatforms()
	tr, _ := tree.Random(rand.New(rand.NewSource(20)), 4, 0.1)
	cfgOn := testConfig(tr, 4, 100000, 1, false)
	cfgOff := cfgOn
	cfgOff.DisableFMA = true
	accumulate := func(cfg engine.Config) time.Duration {
		e := newCase(t, variantCases[2], cfg) // advertises FMA
		defer e.Close()
		for _, b := range []int{0, 1} {
			if err := e.ResetScaleFactors(b); err != nil {
				t.Fatal(err)
			}
		}
		q := e.(interface{ Queue() *device.Queue }).Queue()
		q.ResetTimers()
		if err := e.AccumulateScaleFactors([]int{0, 1}, 2); err != nil {
			t.Fatal(err)
		}
		return q.ModeledTime()
	}
	if on, off := accumulate(cfgOn), accumulate(cfgOff); off <= on {
		t.Fatalf("FMA off modeled %v, on %v: the no-FMA rate was not charged", off, on)
	}
}

func TestSinglePrecisionOnDevice(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(23))
	tr, _ := tree.Random(rng, 8, 0.1)
	m := substmodel.NewJC69()
	rates := substmodel.SingleRate()
	align, _ := seqgen.Simulate(rng, tr, m, rates, 100)
	ps := seqgen.CompressPatterns(align)
	want := referenceLnL(t, tr, m, rates, ps, true, 4, 1)

	e := newCase(t, variantCases[0], testConfig(tr, 4, ps.PatternCount(), 1, true))
	got := driveEngine(t, e, tr, m, rates, ps, true, false)
	e.Close()
	if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-4 {
		t.Fatalf("single precision lnL %v want %v (rel %v)", got, want, rel)
	}
}

func TestCodonWorkGroupReducedOnAMD(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(29))
	tr, _ := tree.Random(rng, 4, 0.1)
	cfg := testConfig(tr, 61, 64, 1, false)
	cfg.WorkGroupSize = 128

	amd, _ := device.FindDevice(device.OpenCL, "Radeon R9 Nano")
	eAMD, err := New(cfg, OpenCLGPU, amd)
	if err != nil {
		t.Fatal(err)
	}
	defer eAMD.Close()
	nv, _ := device.FindDevice(device.OpenCL, "Quadro P5000")
	eNV, err := New(cfg, OpenCLGPU, nv)
	if err != nil {
		t.Fatal(err)
	}
	defer eNV.Close()
	gA := eAMD.(*Engine[float64]).GroupPatterns()
	gN := eNV.(*Engine[float64]).GroupPatterns()
	if gA >= gN {
		t.Fatalf("AMD codon work-group (%d) must be smaller than NVIDIA's (%d)", gA, gN)
	}
}

func TestVariantDeviceMismatch(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(31))
	tr, _ := tree.Random(rng, 4, 0.1)
	cfg := testConfig(tr, 4, 10, 1, false)
	amd, _ := device.FindDevice(device.OpenCL, "Radeon R9 Nano")
	if _, err := New(cfg, CUDA, amd); err == nil {
		t.Fatal("CUDA variant must reject OpenCL devices")
	}
	cudaDev, _ := device.FindDevice(device.CUDA, "Quadro P5000")
	if _, err := New(cfg, OpenCLGPU, cudaDev); err == nil {
		t.Fatal("OpenCL variant must reject CUDA devices")
	}
	if _, err := New(cfg, Variant(99), amd); err == nil {
		t.Fatal("unknown variant must be rejected")
	}
	if _, err := New(cfg, OpenCLGPU, nil); err == nil {
		t.Fatal("nil device must be rejected")
	}
}

func TestDeviceMemoryReleasedOnClose(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(37))
	tr, _ := tree.Random(rng, 8, 0.1)
	dev, _ := device.FindDevice(device.OpenCL, "FirePro S9170")
	before := dev.AllocatedBytes()
	e, err := New(testConfig(tr, 4, 1000, 4, false), OpenCLGPU, dev)
	if err != nil {
		t.Fatal(err)
	}
	m := substmodel.NewJC69()
	rates, _ := substmodel.GammaRates(0.5, 4)
	ps, _ := seqgen.RandomPatterns(rng, 8, 4, 1000)
	driveEngine(t, e, tr, m, rates, ps, true, true)
	if dev.AllocatedBytes() <= before {
		t.Fatal("engine allocated no device memory")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if dev.AllocatedBytes() != before {
		t.Fatalf("leak: %d bytes still allocated", dev.AllocatedBytes()-before)
	}
	// Close is idempotent, like every other engine's (Instance.Finalize
	// documents it), and releases nothing twice.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if dev.AllocatedBytes() != before {
		t.Fatalf("second Close moved the accounting by %d bytes", dev.AllocatedBytes()-before)
	}
}

// TestKernelBindingMatchesCPU: every variant binds the CPU engines'
// state-count table, whatever the precision and FMA setting.
func TestKernelBindingMatchesCPU(t *testing.T) {
	device.ResetPlatforms()
	tr, _ := tree.Random(rand.New(rand.NewSource(43)), 4, 0.1)
	for _, states := range []int{4, 20, 61} {
		table := kernels.ForStateCount[float64](states).Family
		t.Logf("%d states: every accelerator binds the %q kernels", states, table)
		for _, single := range []bool{false, true} {
			for _, noFMA := range []bool{false, true} {
				cfg := testConfig(tr, states, 10, 1, single)
				cfg.DisableFMA = noFMA
				for _, vc := range variantCases {
					e := newCase(t, vc, cfg)
					var got string
					if single {
						got = e.(*Engine[float32]).kern.Family
					} else {
						got = e.(*Engine[float64]).kern.Family
					}
					e.Close()
					if got != table {
						t.Errorf("%s, %d states, single=%v, FMA off=%v: binds %q, the CPU engines %q",
							vc.name, states, single, noFMA, got, table)
					}
				}
			}
		}
	}
}

// goroutinesSettle polls briefly for the goroutine count to fall back to
// want: a closed pool's workers have returned from their loops but may not
// have exited yet. The count is compared only from above — workers of pools
// closed by earlier tests may still be exiting when want is taken.
func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: the engine's workers outlived it", runtime.NumGoroutine(), want)
		}
	}
}

// TestWorkersStopOnClose: every engine runs its launches on a worker pool of
// its own, and Close stops its workers, also when the engine is closed before
// it ran anything and when it is closed twice.
func TestWorkersStopOnClose(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(41))
	tr, _ := tree.Random(rng, 8, 0.1)
	m := substmodel.NewJC69()
	rates, _ := substmodel.GammaRates(0.5, 2)
	ps, _ := seqgen.RandomPatterns(rng, 8, 4, 300)
	start := runtime.NumGoroutine()
	for _, vc := range variantCases {
		for _, drive := range []bool{false, true} {
			e := newCase(t, vc, testConfig(tr, 4, ps.PatternCount(), 2, false))
			if e.(*Engine[float64]).pool == nil {
				t.Fatalf("%s: the engine has no worker pool", vc.name)
			}
			if drive {
				driveEngine(t, e, tr, m, rates, ps, true, true)
			}
			e.Close()
			e.Close()
			goroutinesSettle(t, start)
		}
	}
}

func TestQueueClockAdvancesAndCounts(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(41))
	tr, _ := tree.Random(rng, 8, 0.1)
	dev, _ := device.FindDevice(device.CUDA, "Quadro P5000")
	e, err := New(testConfig(tr, 4, 500, 4, true), CUDA, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	m := substmodel.NewJC69()
	rates, _ := substmodel.GammaRates(0.5, 4)
	ps, _ := seqgen.RandomPatterns(rng, 8, 4, 500)
	driveEngine(t, e, tr, m, rates, ps, true, false)
	q := e.(*Engine[float32]).Queue()
	if q.Launches() == 0 {
		t.Fatal("no kernel launches recorded")
	}
	if q.ModeledTime() <= 0 {
		t.Fatal("modeled clock did not advance")
	}
	if q.BytesTransferred() == 0 {
		t.Fatal("no transfers recorded")
	}
}

func TestAccelEngineErrors(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(43))
	tr, _ := tree.Random(rng, 4, 0.1)
	dev, _ := device.FindDevice(device.OpenCL, "Radeon R9 Nano")
	e, err := New(testConfig(tr, 4, 10, 1, false), OpenCLGPU, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetTipStates(99, make([]int, 10)); err == nil {
		t.Error("expected error for bad tip index")
	}
	if err := e.SetTipStates(0, make([]int, 3)); err == nil {
		t.Error("expected error for wrong states length")
	}
	if err := e.SetCategoryRates([]float64{1, 2}); err == nil {
		t.Error("expected error for wrong rate count")
	}
	if _, err := e.GetPartials(2); err == nil {
		t.Error("expected error for unset partials")
	}
	if _, err := e.GetTransitionMatrix(0); err == nil {
		t.Error("expected error for unset matrix")
	}
	if err := e.UpdateTransitionMatrices(0, []int{0}, []float64{0.1}); err == nil {
		t.Error("expected error for empty eigen slot")
	}
	if _, err := e.CalculateRootLogLikelihoods(0, engine.None); err == nil {
		t.Error("expected error rooting on an unset buffer")
	}
	err = e.UpdatePartials([]engine.Operation{{
		Dest: 5, DestScaleWrite: engine.None, DestScaleRead: engine.None,
		Child1: 0, Child1Mat: 0, Child2: 1, Child2Mat: 1,
	}})
	if err == nil {
		t.Error("expected error for missing matrices")
	}
}

func TestVariantString(t *testing.T) {
	if CUDA.String() != "CUDA" || OpenCLGPU.String() != "OpenCL-GPU" || OpenCLX86.String() != "OpenCL-x86" {
		t.Fatal("variant names wrong")
	}
	if Variant(99).String() == "" {
		t.Fatal("unknown variant must render")
	}
}
