package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"

	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
)

func TestNilCollectorIsSafeAndDisabled(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	// None of these may panic.
	c.SetEnabled(true)
	c.SetLabels("impl", "strategy")
	c.Record(KernelPartials, 3, time.Millisecond)
	c.AddFlops(1e6)
	c.TraceLevel(1, 0, 4, 8, time.Millisecond)
	c.Reset()
	if got := c.NextBatch(); got != 0 {
		t.Fatalf("nil NextBatch = %d, want 0", got)
	}
	snap := c.Snapshot()
	if snap.Enabled || snap.Batches != 0 || len(snap.Kernels) != 0 || len(snap.Levels) != 0 {
		t.Fatalf("nil Snapshot not zero: %+v", snap)
	}
}

func TestDisabledCollectorRecordsNothing(t *testing.T) {
	c := New()
	if c.Enabled() {
		t.Fatal("new collector should start disabled")
	}
	c.Record(KernelPartials, 5, time.Millisecond)
	c.AddFlops(1e9)
	c.TraceLevel(1, 0, 5, 10, time.Millisecond)
	snap := c.Snapshot()
	if len(snap.Kernels) != 0 {
		t.Fatalf("disabled Record leaked into kernels: %+v", snap.Kernels)
	}
	if snap.TotalFlops != 0 {
		t.Fatalf("disabled AddFlops leaked: %v", snap.TotalFlops)
	}
	if len(snap.Levels) != 0 {
		t.Fatalf("disabled TraceLevel leaked: %+v", snap.Levels)
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	c := New()
	c.SetEnabled(true)
	c.SetLabels("CPU-serial", "serial")

	c.Record(KernelPartials, 3, 2*time.Millisecond)
	c.Record(KernelPartials, 2, 1*time.Millisecond)
	c.Record(KernelRoot, 1, 500*time.Microsecond)
	dims := kernels.Dims{StateCount: 4, PatternCount: 1000, CategoryCount: 4}
	c.AddFlops(flops.PartialsOp(dims) * 5)

	snap := c.Snapshot()
	if snap.Implementation != "CPU-serial" || snap.Strategy != "serial" {
		t.Fatalf("labels not reported: %q/%q", snap.Implementation, snap.Strategy)
	}
	if !snap.Enabled {
		t.Fatal("snapshot should report enabled")
	}
	p := snap.Kernel(KernelPartials)
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
	r := snap.Kernel(KernelRoot)
	if r.Ops != 1 || r.Calls != 1 || r.Total != 500*time.Microsecond {
		t.Fatalf("root stats wrong: %+v", r)
	}
	// Kernels with no recorded calls are omitted entirely.
	for _, ks := range snap.Kernels {
		if ks.Kernel == KernelEdge {
			t.Fatal("edge kernel reported without any calls")
		}
	}
	if want := flops.PartialsOp(dims) * 5; snap.TotalFlops != want {
		t.Fatalf("TotalFlops = %v, want %v", snap.TotalFlops, want)
	}
	if want := flops.GFLOPS(snap.TotalFlops, p.Total); snap.EffectiveGFLOPS != want {
		t.Fatalf("EffectiveGFLOPS = %v, want %v", snap.EffectiveGFLOPS, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New()
	c.SetEnabled(true)
	durations := []time.Duration{
		1 * time.Nanosecond,
		100 * time.Nanosecond,
		10 * time.Microsecond,
		1 * time.Millisecond,
		1 * time.Millisecond,
	}
	for _, d := range durations {
		c.Record(KernelMatrices, 1, d)
	}
	h := c.Snapshot().Kernel(KernelMatrices).Histogram
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
	c.SetEnabled(true)
	c.Record(KernelRoot, 1, -time.Second)
	ks := c.Snapshot().Kernel(KernelRoot)
	if ks.Total != 0 || ks.Min != 0 || ks.Max != 0 {
		t.Fatalf("negative duration not clamped: %+v", ks)
	}
}

func TestTraceRingWrapKeepsNewestOldestFirst(t *testing.T) {
	c := New()
	c.SetEnabled(true)
	const extra = 50
	for i := 0; i < TraceCapacity+extra; i++ {
		c.TraceLevel(uint64(i+1), i, 2, 4, time.Duration(i))
	}
	levels := c.Snapshot().Levels
	if len(levels) != TraceCapacity {
		t.Fatalf("ring retained %d traces, want %d", len(levels), TraceCapacity)
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

func TestReset(t *testing.T) {
	c := New()
	c.SetEnabled(true)
	c.SetLabels("impl", "strategy")
	c.NextBatch()
	c.Record(KernelPartials, 2, time.Millisecond)
	c.AddFlops(1e6)
	c.TraceLevel(1, 0, 2, 2, time.Millisecond)

	c.Reset()
	snap := c.Snapshot()
	if len(snap.Kernels) != 0 || snap.TotalFlops != 0 || snap.Batches != 0 || len(snap.Levels) != 0 {
		t.Fatalf("Reset left state behind: %+v", snap)
	}
	if snap.Implementation != "impl" || !snap.Enabled {
		t.Fatal("Reset must preserve labels and the enabled switch")
	}
	// The collector keeps working after a reset, min/max included.
	c.Record(KernelPartials, 1, 2*time.Millisecond)
	p := c.Snapshot().Kernel(KernelPartials)
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
	c.SetEnabled(true)
	const (
		goroutines = 8
		iters      = 500
		opsPerCall = 3
		calls      = goroutines * iters
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
		var prev Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := c.Snapshot()
			p, q := snap.Kernel(KernelPartials), prev.Kernel(KernelPartials)
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
			case len(snap.Levels) > TraceCapacity:
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
				batch := c.NextBatch()
				c.Record(KernelPartials, opsPerCall, time.Duration(i+1)*time.Microsecond)
				c.AddFlops(10)
				c.TraceLevel(batch, 0, opsPerCall, opsPerCall, time.Microsecond)
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	// Quiescent: every figure is exact and the figures agree with each other.
	snap := c.Snapshot()
	p := snap.Kernel(KernelPartials)
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
	if len(snap.Levels) != TraceCapacity {
		t.Fatalf("retained %d traces, want %d", len(snap.Levels), TraceCapacity)
	}
}

// TestDisabledPathAllocatesNothing pins the zero-allocation guarantee of the
// disabled fast path: the guard plus the no-op record must not allocate.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	c := New()
	var nilC *Collector
	for name, col := range map[string]*Collector{"disabled": c, "nil": nilC} {
		allocs := testing.AllocsPerRun(1000, func() {
			if col.Enabled() {
				col.Record(KernelPartials, 1, time.Microsecond)
			}
			col.Record(KernelRoot, 1, time.Microsecond)
			col.AddFlops(1)
			col.NextBatch()
		})
		if allocs != 0 {
			t.Errorf("%s path allocates %.1f per run, want 0", name, allocs)
		}
	}
}

func TestKernelStrings(t *testing.T) {
	want := []string{"partials", "root", "edge", "matrices", "derivatives", "rescale"}
	ks := Kernels()
	if len(ks) != len(want) {
		t.Fatalf("Kernels() returned %d families, want %d", len(ks), len(want))
	}
	for i, k := range ks {
		if k.String() != want[i] {
			t.Errorf("kernel %d String() = %q, want %q", i, k.String(), want[i])
		}
	}
	if Kernel(99).String() != "unknown" {
		t.Error("out-of-range kernel should stringify as unknown")
	}
}

func BenchmarkDisabledGuard(b *testing.B) {
	c := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Enabled() {
			c.Record(KernelPartials, 1, time.Microsecond)
		}
	}
}

func BenchmarkEnabledRecord(b *testing.B) {
	c := New()
	c.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Record(KernelPartials, 4, time.Microsecond)
	}
}

// TestEnabledHotPathAllocatesNothing extends the zero-allocation guarantee
// to the enabled path: counters and histograms are plain atomics, so turning
// telemetry on must add time, never garbage.
func TestEnabledHotPathAllocatesNothing(t *testing.T) {
	c := New()
	c.SetEnabled(true)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Enabled() {
			c.Record(KernelPartials, 4, time.Microsecond)
			c.AddFlops(128)
		}
		c.NextBatch()
	})
	if allocs != 0 {
		t.Errorf("enabled path allocates %.1f per run, want 0", allocs)
	}
}
