package gobeagle

import (
	"encoding/json"
	"math/rand"
	"testing"

	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// statsProblem builds a small shared problem for the Stats API tests.
func statsProblem(t *testing.T) (*tree.Tree, *substmodel.Model, *substmodel.SiteRates, *seqgen.PatternSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	tr, err := tree.Random(rng, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m := substmodel.NewJC69()
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, 150)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, rates, seqgen.CompressPatterns(align)
}

func TestStatsThroughPublicAPI(t *testing.T) {
	tr, m, rates, ps := statsProblem(t)
	inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0,
		FlagTelemetry|FlagThreadingThreadPoolHybrid))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	if !inst.TelemetryEnabled() {
		t.Fatal("FlagTelemetry did not enable collection")
	}
	evaluateTree(t, inst, tr, m, rates, ps)

	s := inst.Stats()
	if !s.Enabled {
		t.Error("snapshot should report enabled")
	}
	if s.Implementation == "" || s.Strategy != "thread-pool-hybrid" {
		t.Errorf("labels = %q/%q, want implementation and thread-pool-hybrid", s.Implementation, s.Strategy)
	}
	if s.Batches != 1 {
		t.Errorf("batches = %d, want 1", s.Batches)
	}
	p := s.Kernel("partials")
	if p.Ops != uint64(tr.TipCount-1) || p.Calls != 1 {
		t.Errorf("partials ops/calls = %d/%d, want %d/1", p.Ops, p.Calls, tr.TipCount-1)
	}
	if s.Kernel("root").Calls != 1 {
		t.Error("root kernel not recorded")
	}
	if s.Kernel("matrices").Ops == 0 {
		t.Error("matrices kernel not recorded")
	}
	if s.TotalFlops <= 0 || s.EffectiveGFLOPS < 0 {
		t.Errorf("flop accounting wrong: %v flops, %v GFLOPS", s.TotalFlops, s.EffectiveGFLOPS)
	}
	if len(s.Levels) == 0 {
		t.Error("hybrid strategy traced no dependency levels")
	}
	// The snapshot is plain data: it must serialize cleanly to JSON.
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("Stats not JSON-serializable: %v", err)
	}

	inst.ResetStats()
	if after := inst.Stats(); after.Batches != 0 || len(after.Kernels) != 0 {
		t.Errorf("ResetStats left state: %+v", after)
	}
}

func TestKernelStatsZeroGuards(t *testing.T) {
	var empty KernelStats
	if empty.MeanPerOp() != 0 || empty.MeanPerCall() != 0 {
		t.Errorf("zero KernelStats means = %v/%v, want 0/0", empty.MeanPerOp(), empty.MeanPerCall())
	}
	k := KernelStats{Ops: 5, Calls: 0, Total: 500}
	if k.MeanPerCall() != 0 {
		t.Errorf("MeanPerCall with zero calls = %v, want 0", k.MeanPerCall())
	}
	if k.MeanPerOp() != 100 {
		t.Errorf("MeanPerOp = %v, want 100", k.MeanPerOp())
	}
	// A freshly created instance must report finite, zero GFLOPS.
	if s := (Stats{}); s.EffectiveGFLOPS != 0 {
		t.Errorf("zero Stats EffectiveGFLOPS = %v", s.EffectiveGFLOPS)
	}
}

func TestTelemetryRuntimeToggle(t *testing.T) {
	tr, m, rates, ps := statsProblem(t)
	inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	if inst.TelemetryEnabled() {
		t.Fatal("telemetry enabled without FlagTelemetry")
	}
	evaluateTree(t, inst, tr, m, rates, ps)
	if s := inst.Stats(); s.Enabled || s.Batches != 0 || len(s.Kernels) != 0 {
		t.Fatalf("disabled instance recorded: %+v", s)
	}

	inst.EnableTelemetry(true)
	evaluateTree(t, inst, tr, m, rates, ps)
	s := inst.Stats()
	if s.Batches != 1 || s.Kernel("partials").Calls != 1 {
		t.Fatalf("runtime-enabled telemetry missed the evaluation: %+v", s)
	}
	inst.EnableTelemetry(false)
	evaluateTree(t, inst, tr, m, rates, ps)
	if after := inst.Stats(); after.Batches != s.Batches {
		t.Fatal("recording continued after EnableTelemetry(false)")
	}
}

func TestStatsOnDeviceAndMultiDevice(t *testing.T) {
	tr, m, rates, ps := statsProblem(t)
	// Accelerator-backed instance: strategy must report "device" and the
	// rescale-free kernels must be counted.
	dev, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 1,
		FlagTelemetry|FlagPrecisionSingle))
	if err != nil {
		t.Fatal(err)
	}
	evaluateTree(t, dev, tr, m, rates, ps)
	ds := dev.Stats()
	dev.Finalize()
	if ds.Strategy != "device" {
		t.Errorf("device strategy = %q", ds.Strategy)
	}
	if ds.Kernel("partials").Ops != uint64(tr.TipCount-1) || ds.Kernel("root").Calls != 1 {
		t.Errorf("device kernels not recorded: %+v", ds.Kernels)
	}

	// Multi-device: the parent collector records; FlagTelemetry propagates.
	multi, err := NewMultiDeviceInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0,
		FlagTelemetry|FlagPrecisionSingle), []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	evaluateTree(t, multi, tr, m, rates, ps)
	ms := multi.Stats()
	multi.Finalize()
	if ms.Strategy != "multi-device" {
		t.Errorf("multi-device strategy = %q", ms.Strategy)
	}
	if p := ms.Kernel("partials"); p.Ops != uint64(tr.TipCount-1) {
		t.Errorf("multi-device partials ops = %d, want %d (no double counting)", p.Ops, tr.TipCount-1)
	}
}

// TestStrategyNamesTheEngine holds Stats().Strategy to the engine that runs:
// for every CPU flag selection the strategy label and Implementation() name
// the same mode, the flag-less default included.
func TestStrategyNamesTheEngine(t *testing.T) {
	tr, _, _, ps := statsProblem(t)
	for _, c := range []struct {
		flags          Flags
		implementation string
		strategy       string
	}{
		{0, "CPU-SSE", "sse"},
		{FlagVectorNone, "CPU-serial", "serial"},
		{FlagVectorSSE, "CPU-SSE", "sse"},
		{FlagThreadingFutures, "CPU-futures", "futures"},
		{FlagThreadingThreadCreate, "CPU-threadcreate", "thread-create"},
		{FlagThreadingThreadPool, "CPU-threadpool", "thread-pool"},
		{FlagVectorSSE | FlagThreadingThreadPool, "CPU-threadpool", "thread-pool"},
		{FlagThreadingThreadPoolHybrid, "CPU-threadpool-hybrid", "thread-pool-hybrid"},
	} {
		inst, err := NewInstance(instanceConfig(tr, 4, ps.PatternCount(), 4, 0, c.flags))
		if err != nil {
			t.Fatalf("flags %v: %v", c.flags, err)
		}
		impl, strategy := inst.Implementation(), inst.Stats().Strategy
		inst.Finalize()
		if impl != c.implementation || strategy != c.strategy {
			t.Errorf("flags %v: implementation %q, strategy %q; want %q, %q",
				c.flags, impl, strategy, c.implementation, c.strategy)
		}
	}
}
