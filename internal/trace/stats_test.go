package trace

import (
	"math"
	"sync"
	"testing"
	"time"

	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
)

// batch is a partials batch span of ops operations taking d.
func batch(ops int, d time.Duration) Span {
	return Span{Kind: KindBatch, Arg0: int64(ops), Dur: int64(d)}
}

// level is a level span of batch b: phase level, ops operations as tasks.
func level(b uint64, lvl, ops, tasks int, d time.Duration) Span {
	return Span{Kind: KindLevel, Batch: b, Arg0: LevelArg(lvl, tasks), Arg1: int64(ops), Dur: int64(d)}
}

func TestNilTracerStatsAreSafeAndDisabled(t *testing.T) {
	var c *Tracer
	if c.StatsEnabled() || c.Recording() {
		t.Fatal("nil tracer reports enabled")
	}
	// None of these may panic.
	c.SetStatsEnabled(true)
	c.Record(batch(3, time.Millisecond))
	c.Record(level(1, 0, 4, 8, time.Millisecond))
	c.ResetStats()
	if got := c.NextBatch(); got != 0 {
		t.Fatalf("nil NextBatch = %d, want 0", got)
	}
	snap := c.Stats(1e6)
	if snap.Enabled || snap.Batches != 0 || len(snap.Kernels) != 0 || len(snap.Levels) != 0 {
		t.Fatalf("nil Stats not zero: %+v", snap)
	}
}

func TestStatsGateOffRecordsNothing(t *testing.T) {
	c := New()
	if c.StatsEnabled() {
		t.Fatal("new tracer should start with stats off")
	}
	// Spans kept for the timeline do not reach the aggregates either.
	c.SetEnabled(true)
	c.Record(batch(5, time.Millisecond))
	c.Record(level(1, 0, 5, 10, time.Millisecond))
	snap := c.Stats(1e9 / 5)
	if len(snap.Kernels) != 0 {
		t.Fatalf("stats-off Record leaked into kernels: %+v", snap.Kernels)
	}
	if snap.TotalFlops != 0 {
		t.Fatalf("stats-off flops leaked: %v", snap.TotalFlops)
	}
	if len(snap.Levels) != 0 {
		t.Fatalf("stats-off level leaked: %+v", snap.Levels)
	}
	// A span-only view never aggregates, whatever the gates.
	view := c.SpansOnly()
	c.SetStatsEnabled(true)
	view.SetStatsEnabled(true)
	view.Record(batch(5, time.Millisecond))
	view.Record(level(1, 0, 5, 10, time.Millisecond))
	if snap := c.Stats(1); len(snap.Kernels) != 0 || len(snap.Levels) != 0 {
		t.Fatalf("span-only view reached the aggregates: %+v", snap)
	}
	if n := len(c.Snapshot()); n != 4 {
		t.Fatalf("ring holds %d spans, want the 4 recorded under the span gate", n)
	}
}

func TestStatsLevelsStayOffTheTimeline(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	c.Record(level(1, 0, 5, 10, time.Millisecond))
	if n := len(c.Snapshot()); n != 0 {
		t.Fatalf("a level kept only for Stats shows %d spans on the timeline", n)
	}
	if lv := c.Stats(0).Levels; len(lv) != 1 || lv[0] != (LevelTrace{Batch: 1, Level: 0, Ops: 5, Tasks: 10, Wall: time.Millisecond}) {
		t.Fatalf("levels = %+v", lv)
	}
}

func TestRecordAndStats(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)

	c.Record(batch(3, 2*time.Millisecond))
	c.Record(batch(2, 1*time.Millisecond))
	c.Record(Span{Kind: KindRoot, Dur: int64(500 * time.Microsecond)})
	dims := kernels.Dims{StateCount: 4, PatternCount: 1000, CategoryCount: 4}

	snap := c.Stats(flops.PartialsOp(dims))
	if !snap.Enabled {
		t.Fatal("snapshot should report enabled")
	}
	p := snap.Kernel("partials")
	if p.Ops != 5 || p.Calls != 2 {
		t.Fatalf("partials ops/calls = %d/%d, want 5/2", p.Ops, p.Calls)
	}
	if p.Total != 3*time.Millisecond {
		t.Fatalf("partials total = %v, want 3ms", p.Total)
	}
	if p.Min != 1*time.Millisecond || p.Max != 2*time.Millisecond {
		t.Fatalf("partials min/max = %v/%v, want 1ms/2ms", p.Min, p.Max)
	}
	if want := 3 * time.Millisecond / 5; p.MeanPerOp() != want {
		t.Fatalf("MeanPerOp = %v, want %v", p.MeanPerOp(), want)
	}
	if want := 3 * time.Millisecond / 2; p.MeanPerCall() != want {
		t.Fatalf("MeanPerCall = %v, want %v", p.MeanPerCall(), want)
	}
	r := snap.Kernel("root")
	if r.Ops != 1 || r.Calls != 1 || r.Total != 500*time.Microsecond {
		t.Fatalf("root stats wrong: %+v", r)
	}
	// Kernels with no recorded calls are omitted entirely.
	for _, ks := range snap.Kernels {
		if ks.Kernel == "edge" {
			t.Fatal("edge kernel reported without any calls")
		}
	}
	if want := flops.PartialsOp(dims) * 5; snap.TotalFlops != want {
		t.Fatalf("TotalFlops = %v, want %v", snap.TotalFlops, want)
	}
	if want := flops.GFLOPS(snap.TotalFlops, p.Total); snap.EffectiveGFLOPS != want {
		t.Fatalf("EffectiveGFLOPS = %v, want %v", snap.EffectiveGFLOPS, want)
	}
	if snap.Batches != 2 {
		t.Fatalf("batches = %d, want the partials calls 2", snap.Batches)
	}
}

// TestFamilySpans pins which span feeds which family, in report order, and
// the operations each counts.
func TestFamilySpans(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	for _, s := range []Span{
		{Kind: KindBatch, Arg0: 3},
		{Kind: KindBarrier, Arg0: 2, Arg1: 4}, // a multi-device batch of 4 ops over 2 backends
		{Kind: KindRoot, Arg0: 100},
		{Kind: KindEdge, Arg0: 100},
		{Kind: KindMatrices, Arg0: 5},
		{Kind: KindMatrices, Arg0: 0}, // every matrix reused: no kernel ran
		{Kind: KindDerivatives, Arg0: 2},
		{Kind: KindRescale, Arg0: 100},
		{Kind: KindTask, Arg0: 100},
		{Kind: KindKernel, Arg0: 100},
	} {
		c.Record(s)
	}
	want := []KernelStats{
		{Kernel: "partials", Ops: 7, Calls: 2},
		{Kernel: "root", Ops: 1, Calls: 1},
		{Kernel: "edge", Ops: 1, Calls: 1},
		{Kernel: "matrices", Ops: 5, Calls: 1},
		{Kernel: "derivatives", Ops: 2, Calls: 1},
		{Kernel: "rescale", Ops: 1, Calls: 1},
	}
	got := c.Stats(0).Kernels
	if len(got) != len(want) {
		t.Fatalf("%d families reported, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if g := got[i]; g.Kernel != w.Kernel || g.Ops != w.Ops || g.Calls != w.Calls {
			t.Errorf("family %d = %s %d ops/%d calls, want %s %d/%d", i, g.Kernel, g.Ops, g.Calls, w.Kernel, w.Ops, w.Calls)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	durations := []time.Duration{
		1 * time.Nanosecond,
		100 * time.Nanosecond,
		10 * time.Microsecond,
		1 * time.Millisecond,
		1 * time.Millisecond,
	}
	for _, d := range durations {
		c.Record(Span{Kind: KindMatrices, Arg0: 1, Dur: int64(d)})
	}
	h := c.Stats(0).Kernel("matrices").Histogram
	if len(h) != 4 {
		t.Fatalf("expected 4 non-empty buckets, got %d: %+v", len(h), h)
	}
	var total uint64
	last := time.Duration(-1)
	for _, b := range h {
		if b.UpperBound <= last {
			t.Fatalf("buckets not ascending: %+v", h)
		}
		last = b.UpperBound
		total += b.Count
	}
	if total != uint64(len(durations)) {
		t.Fatalf("bucket counts sum to %d, want %d", total, len(durations))
	}
	if h[len(h)-1].Count != 2 {
		t.Fatalf("1ms bucket count = %d, want 2", h[len(h)-1].Count)
	}
}

func TestNegativeDurationClampedToZero(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	c.Record(Span{Kind: KindRoot, Dur: int64(-time.Second)})
	ks := c.Stats(0).Kernel("root")
	if ks.Total != 0 || ks.Min != 0 || ks.Max != 0 {
		t.Fatalf("negative duration not clamped: %+v", ks)
	}
}

func TestLevelsKeepNewestOldestFirst(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	const extra = 50
	for i := 0; i < LevelCapacity+extra; i++ {
		c.Record(level(uint64(i+1), i, 2, 4, time.Duration(i)))
	}
	levels := c.Stats(0).Levels
	if len(levels) != LevelCapacity {
		t.Fatalf("retained %d traces, want %d", len(levels), LevelCapacity)
	}
	if levels[0].Batch != extra+1 {
		t.Fatalf("oldest retained batch = %d, want %d", levels[0].Batch, extra+1)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].Batch != levels[i-1].Batch+1 {
			t.Fatalf("traces out of order at %d: %d then %d", i, levels[i-1].Batch, levels[i].Batch)
		}
	}
}

func TestResetStats(t *testing.T) {
	c := New()
	c.SetEnabled(true)
	c.SetStatsEnabled(true)
	b := c.NextBatch()
	c.Record(batch(2, time.Millisecond))
	c.Record(level(b, 0, 2, 2, time.Millisecond))

	c.ResetStats()
	snap := c.Stats(1e6)
	if len(snap.Kernels) != 0 || snap.TotalFlops != 0 || snap.Batches != 0 || len(snap.Levels) != 0 {
		t.Fatalf("ResetStats left state behind: %+v", snap)
	}
	if !snap.Enabled || !c.Enabled() {
		t.Fatal("ResetStats must preserve both gates")
	}
	if n := len(c.Snapshot()); n != 2 {
		t.Fatalf("ResetStats dropped spans: %d retained, want 2", n)
	}
	// The aggregates keep working after a reset, min/max included.
	c.Record(batch(1, 2*time.Millisecond))
	p := c.Stats(0).Kernel("partials")
	if p.Min != 2*time.Millisecond || p.Max != 2*time.Millisecond {
		t.Fatalf("post-reset min/max wrong: %+v", p)
	}
}

// TestConcurrentRecording hammers every mutating entry point from many
// goroutines (run under -race in CI) and checks the documented snapshot
// guarantee: exact at quiescence, monotone in flight. A record updates its
// counters as independent atomics, so a snapshot taken mid-flight may see a
// call's ops before its histogram bucket; what it may never see is a counter
// going backwards or past what the writers will ever record.
func TestConcurrentRecording(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	const (
		goroutines = 8
		iters      = 500
		opsPerCall = 3
		calls      = goroutines * iters
		flopsPerOp = 10.0 / opsPerCall // ten flops a call
	)
	inHistogram := func(ks KernelStats) (n uint64) {
		for _, b := range ks.Histogram {
			n += b.Count
		}
		return n
	}
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := c.Stats(flopsPerOp)
			p, q := snap.Kernel("partials"), prev.Kernel("partials")
			switch {
			case p.Calls < q.Calls || p.Ops < q.Ops || p.Total < q.Total || p.Max < q.Max ||
				inHistogram(p) < inHistogram(q) || snap.Batches < prev.Batches || snap.TotalFlops < prev.TotalFlops:
				t.Errorf("snapshot went backwards:\n was %+v\n now %+v", prev, snap)
				return
			case q.Min > 0 && p.Min > q.Min: // zero: the first call's minimum is not stored yet
				t.Errorf("snapshot minimum rose from %v to %v", q.Min, p.Min)
				return
			case p.Calls > calls || p.Ops > calls*opsPerCall || inHistogram(p) > calls || snap.Batches > calls:
				t.Errorf("snapshot exceeds what the writers record: %+v", snap)
				return
			case len(snap.Levels) > LevelCapacity:
				t.Errorf("snapshot retained %d levels", len(snap.Levels))
				return
			}
			prev = snap
		}
	}()
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				b := c.NextBatch()
				c.Record(batch(opsPerCall, time.Duration(i+1)*time.Microsecond))
				c.Record(level(b, 0, opsPerCall, opsPerCall, time.Microsecond))
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	// Quiescent: every figure is exact and the figures agree with each other.
	snap := c.Stats(flopsPerOp)
	p := snap.Kernel("partials")
	if p.Calls != calls {
		t.Fatalf("calls = %d, want %d", p.Calls, calls)
	}
	if p.Ops != calls*opsPerCall {
		t.Fatalf("ops = %d, want %d", p.Ops, calls*opsPerCall)
	}
	if n := inHistogram(p); n != calls {
		t.Fatalf("histogram holds %d samples, want %d", n, calls)
	}
	if p.Min != time.Microsecond || p.Max != iters*time.Microsecond {
		t.Fatalf("min/max = %v/%v, want %v/%v", p.Min, p.Max, time.Microsecond, iters*time.Microsecond)
	}
	if want := goroutines * time.Duration(iters*(iters+1)/2) * time.Microsecond; p.Total != want {
		t.Fatalf("total = %v, want %v", p.Total, want)
	}
	if snap.Batches != calls {
		t.Fatalf("batches = %d, want %d", snap.Batches, calls)
	}
	if want := float64(calls * 10); math.Abs(snap.TotalFlops-want) > 1e-6 {
		t.Fatalf("TotalFlops = %v, want %v", snap.TotalFlops, want)
	}
	if len(snap.Levels) != LevelCapacity {
		t.Fatalf("retained %d traces, want %d", len(snap.Levels), LevelCapacity)
	}
}

// TestDisabledPathAllocatesNothing pins the zero-allocation guarantee of the
// disabled fast path: the guard plus the no-op record must not allocate.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	c := New()
	var nilC *Tracer
	for name, tr := range map[string]*Tracer{"disabled": c, "nil": nilC} {
		allocs := testing.AllocsPerRun(1000, func() {
			if tr.Recording() {
				tr.Record(batch(1, time.Microsecond))
			}
			tr.Record(Span{Kind: KindRoot, Dur: 1000})
			tr.NextBatch()
		})
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f per run, want 0", name, allocs)
		}
	}
}

// TestEnabledHotPathAllocatesNothing extends the zero-allocation guarantee
// to the enabled path: counters and histograms are plain atomics and level
// spans land in the preallocated ring, so turning stats on must add time,
// never garbage.
func TestEnabledHotPathAllocatesNothing(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Recording() && c.StatsEnabled() {
			c.Record(batch(4, time.Microsecond))
			c.Record(level(1, 0, 4, 2, time.Microsecond))
		}
		c.NextBatch()
	})
	if allocs != 0 {
		t.Errorf("enabled path allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkStatsRecord(b *testing.B) {
	c := New()
	c.SetStatsEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Record(batch(4, time.Microsecond))
	}
}

// Zero-division guards: mean and GFLOPS accessors must yield zero, never
// panic or return NaN/Inf, for empty or zero-duration stats.

func TestKernelStatsMeansGuardZero(t *testing.T) {
	var empty KernelStats
	if got := empty.MeanPerOp(); got != 0 {
		t.Errorf("MeanPerOp on zero stats = %v, want 0", got)
	}
	if got := empty.MeanPerCall(); got != 0 {
		t.Errorf("MeanPerCall on zero stats = %v, want 0", got)
	}
	// Calls without ops (and vice versa): only the populated mean divides.
	callsOnly := KernelStats{Calls: 3, Total: 300}
	if got := callsOnly.MeanPerOp(); got != 0 {
		t.Errorf("MeanPerOp with zero ops = %v, want 0", got)
	}
	if got := callsOnly.MeanPerCall(); got != 100 {
		t.Errorf("MeanPerCall = %v, want 100", got)
	}
	opsOnly := KernelStats{Ops: 4, Total: 400}
	if got := opsOnly.MeanPerCall(); got != 0 {
		t.Errorf("MeanPerCall with zero calls = %v, want 0", got)
	}
	if got := opsOnly.MeanPerOp(); got != 100 {
		t.Errorf("MeanPerOp = %v, want 100", got)
	}
}

func TestGFLOPSGuardsZeroAndNegativeDuration(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		if got := flops.GFLOPS(1e12, d); got != 0 {
			t.Errorf("GFLOPS(1e12, %v) = %v, want 0", d, got)
		}
	}
	if got := flops.GFLOPS(2e9, time.Second); got != 2 {
		t.Errorf("GFLOPS(2e9, 1s) = %v, want 2", got)
	}
}

// TestStatsZeroDurationPartials covers the EffectiveGFLOPS path when flops
// were accounted but the partials family recorded zero wall time (possible
// on coarse clocks): the snapshot must report 0, not +Inf.
func TestStatsZeroDurationPartials(t *testing.T) {
	c := New()
	c.SetStatsEnabled(true)
	c.Record(batch(10, 0))
	snap := c.Stats(1e8)
	if snap.EffectiveGFLOPS != 0 {
		t.Errorf("EffectiveGFLOPS with zero partials wall time = %v, want 0", snap.EffectiveGFLOPS)
	}
	ks := snap.Kernel("partials")
	if ks.MeanPerOp() != 0 || ks.MeanPerCall() != 0 {
		t.Errorf("zero-duration kernel means = %v/%v, want 0/0", ks.MeanPerOp(), ks.MeanPerCall())
	}
}

// TestSummarizeOrdersByLayerThenKind pins the /debug/trace row order on a
// snapshot mixing serve, network and engine kinds: layers in rendering
// order, kinds within a layer in declaration order.
func TestSummarizeOrdersByLayerThenKind(t *testing.T) {
	spans := []Span{
		{Kind: KindRPC, Dur: 5},
		{Kind: KindServeRequest, Dur: 9},
		{Kind: KindRemoteApply, Dur: 3},
		{Kind: KindServeBatch, Dur: 4},
		{Kind: KindRoot, Dur: 2},
		{Kind: KindServeWait, Dur: 1},
		{Kind: KindBatch, Dur: 6},
		{Kind: KindServeCompile, Dur: 7},
		{Kind: KindRPC, Dur: 5},
	}
	want := []KindSummary{
		{Kind: "partials batch", Layer: "scheduler", Count: 1, TotalNs: 6},
		{Kind: "root likelihood", Layer: "scheduler", Count: 1, TotalNs: 2},
		{Kind: "serve batch", Layer: "serve", Count: 1, TotalNs: 4},
		{Kind: "serve wait", Layer: "serve", Count: 1, TotalNs: 1},
		{Kind: "serve request", Layer: "serve", Count: 1, TotalNs: 9},
		{Kind: "serve compile", Layer: "serve", Count: 1, TotalNs: 7},
		{Kind: "rpc", Layer: "network", Count: 2, TotalNs: 10},
		{Kind: "worker apply", Layer: "network", Count: 1, TotalNs: 3},
	}
	got := Summarize(spans)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if rows := Summarize(nil); rows == nil || len(rows) != 0 {
		t.Errorf("empty summary = %#v, want an empty, non-nil slice", rows)
	}
}
