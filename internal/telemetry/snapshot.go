package telemetry

import (
	"math"
	"time"

	"gobeagle/internal/flops"
)

// KernelStats is the snapshot of one kernel family's counters.
type KernelStats struct {
	Kernel Kernel
	// Ops counts logical operations (e.g. individual partials operations,
	// across all batches); Calls counts timed invocations (histogram
	// samples — one per batch for batched kernels).
	Ops   uint64
	Calls uint64
	// Total/Min/Max aggregate the per-call wall times.
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	// Histogram holds the non-empty log₂ duration buckets, ascending.
	Histogram []HistogramBucket
}

// MeanPerOp is the average wall time attributed to one logical operation.
func (s KernelStats) MeanPerOp() time.Duration {
	if s.Ops == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Ops)
}

// MeanPerCall is the average wall time of one timed invocation.
func (s KernelStats) MeanPerCall() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Calls)
}

// HistogramBucket is one non-empty log₂ duration bucket: Count calls took
// at most UpperBound (and more than the previous bucket's UpperBound).
type HistogramBucket struct {
	UpperBound time.Duration
	Count      uint64
}

// Snapshot is a view of a collector that is exact at quiescence and monotone
// in flight. Recording updates each counter as an independent atomic and a
// snapshot reads them one by one, without a sequence guard. Taken while no
// recording is in progress, every figure is exact and the figures agree
// (Ops, Calls, Total and the histogram describe the same calls). Taken
// concurrently with recording, each figure is individually valid and never
// moves backwards between successive snapshots (Min never rises), but figures
// may differ from each other by the calls in flight: Calls can be ahead of
// the histogram's sample count, Ops ahead of Calls. Consumers that divide one
// figure by another (means, rates) should expect that skew, not an error.
// Instance.Stats and the /metrics exporters inherit this guarantee.
type Snapshot struct {
	Implementation string
	Strategy       string
	Enabled        bool
	// TotalFlops is the accumulated effective floating-point operation
	// count of the partials updates (the paper's §V-A measure).
	TotalFlops float64
	// EffectiveGFLOPS relates TotalFlops to the partials kernel's total
	// wall time — the throughput genomictest and beaglebench report.
	EffectiveGFLOPS float64
	// Batches counts UpdatePartials invocations since the last reset.
	Batches uint64
	// Kernels holds stats for every kernel family with recorded calls.
	Kernels []KernelStats
	// Levels are the retained scheduler phase traces, oldest first
	// (threaded CPU strategies only).
	Levels []LevelTrace
}

// Kernel returns the stats for one kernel family, or a zero value.
func (s Snapshot) Kernel(k Kernel) KernelStats {
	for _, ks := range s.Kernels {
		if ks.Kernel == k {
			return ks
		}
	}
	return KernelStats{Kernel: k}
}

// Snapshot captures the collector's current state. Safe to call
// concurrently with recording, with the guarantee the Snapshot type
// documents: exact at quiescence, monotone in flight. A nil collector yields
// a zero snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	lb := c.labels.Load()
	snap := Snapshot{
		Implementation: lb.impl,
		Strategy:       lb.strategy,
		Enabled:        c.enabled.Load(),
		TotalFlops:     math.Float64frombits(c.flopsBits.Load()),
		Batches:        c.batches.Load(),
		Levels:         c.trace.snapshot(),
	}
	for k := 0; k < int(numKernels); k++ {
		m := &c.kernels[k]
		calls := m.calls.Load()
		if calls == 0 {
			continue
		}
		ks := KernelStats{
			Kernel: Kernel(k),
			Ops:    m.ops.Load(),
			Calls:  calls,
			Total:  time.Duration(m.totalNS.Load()),
			Max:    time.Duration(m.maxNS.Load()),
		}
		if min := m.minNS.Load(); min != math.MaxInt64 {
			ks.Min = time.Duration(min)
		}
		for b := 0; b < histBuckets; b++ {
			if n := m.buckets[b].Load(); n > 0 {
				upper := time.Duration(math.MaxInt64)
				if b < histBuckets-1 {
					upper = time.Duration(int64(1)<<b - 1)
				}
				ks.Histogram = append(ks.Histogram, HistogramBucket{UpperBound: upper, Count: n})
			}
		}
		snap.Kernels = append(snap.Kernels, ks)
	}
	if p := snap.Kernel(KernelPartials); p.Total > 0 {
		snap.EffectiveGFLOPS = flops.GFLOPS(snap.TotalFlops, p.Total)
	}
	return snap
}
