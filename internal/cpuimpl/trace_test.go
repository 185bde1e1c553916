package cpuimpl

import (
	"testing"

	"gobeagle/internal/engine"
	"gobeagle/internal/trace"
)

// TestTraceSpansInEveryMode checks every CPU plan emits a batch span per
// UpdatePartials and a root span per likelihood integration, and that the
// threaded plans additionally emit phase (level) spans whose op counts sum to
// the batch's operations: one per dependency level for Futures, one per batch
// otherwise, with one worker task span per slab in the pool modes.
func TestTraceSpansInEveryMode(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	for _, mode := range Modes() {
		tc := trace.New()
		tc.SetEnabled(true)
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tc
		e, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		spans := tc.Snapshot()
		byKind := map[trace.Kind][]trace.Span{}
		for _, s := range spans {
			byKind[s.Kind] = append(byKind[s.Kind], s)
			if s.Dur < 0 || s.Start < 0 {
				t.Errorf("%v: span with negative time: %+v", mode, s)
			}
		}
		if len(byKind[trace.KindBatch]) == 0 {
			t.Errorf("%v: no batch span", mode)
		}
		if len(byKind[trace.KindRoot]) == 0 {
			t.Errorf("%v: no root span", mode)
		}
		if len(byKind[trace.KindMatrices]) == 0 {
			t.Errorf("%v: no matrices span", mode)
		}
		if mode != Serial && mode != SSE {
			var ops int64
			for _, s := range byKind[trace.KindLevel] {
				ops += s.Arg1
			}
			if ops != int64(tr.TipCount-1) {
				t.Errorf("%v: level span ops sum to %d, want %d", mode, ops, tr.TipCount-1)
			}
			levels, batches := len(byKind[trace.KindLevel]), len(byKind[trace.KindBatch])
			if mode != Futures && levels != batches {
				t.Errorf("%v: %d phase spans for %d batches, want one per batch", mode, levels, batches)
			}
		}
		if mode == ThreadPool || mode == ThreadPoolHybrid {
			if len(byKind[trace.KindTask]) == 0 {
				t.Errorf("%v: pool strategy emitted no worker task spans", mode)
			}
			perBatch := map[uint64]int{}
			for _, s := range byKind[trace.KindTask] {
				if s.Lane < 0 {
					t.Errorf("%v: task span without worker lane: %+v", mode, s)
				}
				perBatch[s.Batch]++
			}
			for _, b := range byKind[trace.KindBatch] {
				if got, want := perBatch[b.Batch], testSlabs(mode, ps.PatternCount()); got != want {
					t.Errorf("%v: batch %d ran as %d task spans, want %d slabs", mode, b.Batch, got, want)
				}
			}
		}
	}
}

// TestTraceDisabledAndNilRecordNothing mirrors the telemetry contract: a
// disabled or absent tracer must leave no spans behind.
func TestTraceDisabledAndNilRecordNothing(t *testing.T) {
	tr, m, rates, ps := telemetryProblem(t)
	disabled := trace.New()
	for _, tc := range []*trace.Tracer{disabled, nil} {
		cfg := testConfig(tr, 4, ps.PatternCount(), 4, false)
		cfg.Trace = tc
		e, err := New(cfg, ThreadPoolHybrid)
		if err != nil {
			t.Fatal(err)
		}
		driveEngine(t, e, tr, m, rates, ps, true, false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if spans := disabled.Snapshot(); len(spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(spans))
	}
}

// TestTraceDisabledOverhead is the tracer's counterpart of
// TestTelemetryDisabledOverhead: an engine carrying a disabled tracer must
// run UpdatePartials within noise of an engine with no tracer at all.
func TestTraceDisabledOverhead(t *testing.T) {
	disabledOverhead(t, "tracer", func(cfg *engine.Config) { cfg.Trace = trace.New() })
}
