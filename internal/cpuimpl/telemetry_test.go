package cpuimpl

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/flops"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/trace"
	"gobeagle/internal/tree"
)

// telemetryProblem builds a shared small problem for the telemetry tests.
func telemetryProblem(t *testing.T) (*tree.Tree, *substmodel.Model, *substmodel.SiteRates, *seqgen.PatternSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	tr, err := tree.Random(rng, 12, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := substmodel.NewHKY85(2.0, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, 200)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, rates, seqgen.CompressPatterns(align)
}

func TestTelemetryRecordsKernelsInEveryMode(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	for _, mode := range Modes() {
		tel := trace.New()
		tel.SetStatsEnabled(true)
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tel
		e, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		snap := tel.Stats(flops.PartialsOp(cfg.Dims))
		p := snap.Kernel("partials")
		if p.Calls == 0 || p.Ops != uint64(tr.TipCount-1) {
			t.Errorf("%v: partials ops/calls = %d/%d, want %d ops", mode, p.Ops, p.Calls, tr.TipCount-1)
		}
		if snap.Kernel("root").Calls == 0 {
			t.Errorf("%v: root kernel not recorded", mode)
		}
		if mats := snap.Kernel("matrices"); mats.Ops == 0 {
			t.Errorf("%v: matrices kernel not recorded", mode)
		}
		if snap.TotalFlops <= 0 {
			t.Errorf("%v: no effective flops accumulated", mode)
		}
		if snap.Batches == 0 {
			t.Errorf("%v: batch counter untouched", mode)
		}
	}
}

// testSlabs is the slab count a slab plan cuts patterns into under
// testConfig (Threads 4, MinPatternsWork 1).
func testSlabs(mode Mode, patterns int) int {
	if mode == ThreadPoolHybrid {
		return min(4, (patterns+HybridMinChunk-1)/HybridMinChunk)
	}
	return 4
}

// TestTelemetryLevelTraces checks every threaded plan reports its phases
// through the batch tracer: Futures one per dependency level, one task per
// operation, with the per-level op counts summing to the batch's operations;
// the slab plans one per batch, holding all of its operations as one task
// per slab.
func TestTelemetryLevelTraces(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	for _, mode := range []Mode{Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid} {
		tel := trace.New()
		tel.SetStatsEnabled(true)
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tel
		e, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		levels := tel.Stats(0).Levels
		if len(levels) == 0 {
			t.Errorf("%v: no dependency levels traced", mode)
			continue
		}
		byBatch := map[uint64]int{}
		lastLevel := map[uint64]int{}
		for _, lt := range levels {
			if lt.Batch == 0 {
				t.Errorf("%v: level trace with zero batch id", mode)
			}
			if lt.Tasks < 1 || lt.Ops < 1 {
				t.Errorf("%v: degenerate level trace %+v", mode, lt)
			}
			if mode == Futures && lt.Tasks != lt.Ops {
				t.Errorf("%v: level %+v not one task per operation", mode, lt)
			}
			if slabs := testSlabs(mode, ps.PatternCount()); mode != Futures &&
				(lt.Level != 0 || lt.Ops != tr.TipCount-1 || lt.Tasks != slabs) {
				t.Errorf("%v: phase %+v, want level 0 of %d ops as %d slabs", mode, lt, tr.TipCount-1, slabs)
			}
			if prev, ok := lastLevel[lt.Batch]; ok && lt.Level != prev+1 {
				t.Errorf("%v: batch %d levels not consecutive: %d after %d", mode, lt.Batch, lt.Level, prev)
			}
			lastLevel[lt.Batch] = lt.Level
			byBatch[lt.Batch] += lt.Ops
		}
		for batch, ops := range byBatch {
			if ops != tr.TipCount-1 {
				t.Errorf("%v: batch %d level ops sum to %d, want %d", mode, batch, ops, tr.TipCount-1)
			}
		}
	}
}

func TestTelemetryDisabledAndNilRecordNothing(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	disabled := trace.New() // never enabled
	for _, tel := range []*trace.Tracer{disabled, nil} {
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tel
		e, err := New(cfg, ThreadPoolHybrid)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	snap := disabled.Stats(0)
	if len(snap.Kernels) != 0 || snap.Batches != 0 || len(snap.Levels) != 0 {
		t.Fatalf("disabled collector recorded: %+v", snap)
	}
}

// disabledOverhead compares UpdatePartials on a Serial engine built from a
// configuration carrying a switched-off instrument against one carrying none,
// and fails the test if the switched-off engine is measurably slower or
// allocates. The two engines are timed alternately, rep by rep, and compared
// by their medians, so load on the host (a parallel `go test ./...` on two
// cores) lands on both alike instead of on whichever ran second. The 50%
// threshold is deliberately loose; the per-call budgets are pinned by
// BenchmarkDisabledGuard in internal/trace.
func disabledOverhead(t *testing.T, what string, instrument func(*engine.Config)) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	tr, m, rates, ps := telemetryProblem(t)
	ops := scheduleOps(tr, noScale, noScale)
	load := func(configure func(*engine.Config)) engine.Engine {
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		if configure != nil {
			configure(&cfg)
		}
		e, err := New(cfg, Serial)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		driveEngine(t, e, tr, m, rates, ps, true, false)
		return e
	}
	engines := [2]engine.Engine{load(nil), load(instrument)}
	const reps = 101
	var times [2][]time.Duration
	for rep := 0; rep < reps; rep++ {
		for i, e := range engines {
			start := time.Now()
			if err := e.UpdatePartials(ops); err != nil {
				t.Fatal(err)
			}
			times[i] = append(times[i], time.Since(start))
		}
	}
	for i := range times {
		sort.Slice(times[i], func(a, b int) bool { return times[i][a] < times[i][b] })
	}
	baseline, disabled := times[0][reps/2], times[1][reps/2]
	if baseline <= 0 {
		t.Skip("timer resolution too coarse for comparison")
	}
	if ratio := float64(disabled) / float64(baseline); ratio > 1.5 {
		t.Errorf("disabled %s overhead %.1f%% (median baseline %v, disabled %v)",
			what, 100*(ratio-1), baseline, disabled)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = engines[1].UpdatePartials(ops) }); allocs != 0 {
		t.Errorf("disabled %s: UpdatePartials allocates %.1f times per batch, want 0", what, allocs)
	}
}

// TestTelemetryDisabledOverhead is the regression guard for the <2%
// disabled-overhead budget: a recorder with its stats gate switched off must
// keep UpdatePartials close to an engine with no recorder at all.
func TestTelemetryDisabledOverhead(t *testing.T) {
	disabledOverhead(t, "telemetry", func(cfg *engine.Config) { cfg.Trace = trace.New() })
}
