package gobeagle

import (
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/multiimpl"
	"gobeagle/internal/reuse"
	"gobeagle/internal/trace"
)

// Stats is a point-in-time snapshot of an instance's telemetry: per-kernel
// operation counters and duration histograms, effective-GFLOPS accounting,
// and the retained scheduler dependency-level traces. Every figure is folded
// from the spans the instance's one recorder takes; telemetry is that
// recorder's stats gate, tracing its span gate. Snapshots are taken
// atomically against concurrent recording and are plain data, safe to retain
// and to serialize (all fields marshal cleanly to JSON).
//
// Collection is off unless the instance was created with FlagTelemetry or
// EnableTelemetry(true) was called; a disabled instance yields a snapshot
// with Enabled == false and whatever was recorded while collection was on.
type Stats struct {
	// Implementation is the engine name, e.g. "CPU-threadpool-hybrid" or
	// "OpenCL-GPU: Radeon R9 Nano".
	Implementation string `json:"implementation"`
	// Strategy is the scheduling strategy: the CPU threading model
	// ("serial", "futures", "thread-pool-hybrid", ...), "device" for
	// accelerator implementations, or "multi-device".
	Strategy string `json:"strategy"`
	// Enabled reports whether collection was on when the snapshot was taken.
	Enabled bool `json:"enabled"`
	// TotalFlops is the accumulated effective floating-point operation count
	// of the partials updates — the paper's §V-A measure, from the same
	// per-operation flop model genomictest and beaglebench use.
	TotalFlops float64 `json:"total_flops"`
	// EffectiveGFLOPS relates TotalFlops to the partials kernel's total wall
	// time.
	EffectiveGFLOPS float64 `json:"effective_gflops"`
	// Batches counts UpdatePartials invocations recorded since the last
	// reset.
	Batches uint64 `json:"batches"`
	// Kernels holds per-kernel-family stats, only for families with
	// recorded calls.
	Kernels []KernelStats `json:"kernels,omitempty"`
	// Levels are the most recent scheduler phase traces (up to 256),
	// oldest first, recorded by the threaded CPU strategies: one per
	// dependency level for futures, one per batch for the pattern-slab
	// strategies. They are the recorder's level spans, so ResetTrace drops
	// them too.
	Levels []LevelTrace `json:"levels,omitempty"`
	// Backends holds per-backend utilization for multi-device instances
	// created with FlagRebalance: the current pattern slice and measured
	// throughput of each backend. Empty otherwise, so telemetry is
	// unchanged when rebalancing is off.
	Backends []BackendStats `json:"backends,omitempty"`
	// Rebalances and PatternsMigrated count executed repartitions and the
	// total patterns they moved (FlagRebalance instances only).
	Rebalances       int `json:"rebalances,omitempty"`
	PatternsMigrated int `json:"patterns_migrated,omitempty"`
	// RebalanceEvents is the retained repartition history, oldest first.
	RebalanceEvents []RebalanceEvent `json:"rebalance_events,omitempty"`
}

// BackendStats describes one backend of a rebalancing multi-device
// instance: its current contiguous pattern slice [Lo, Hi) and its measured
// throughput in pattern-operations per second (EWMA over UpdatePartials
// batches; 0 until the first batch).
type BackendStats struct {
	Lo         int     `json:"lo"`
	Hi         int     `json:"hi"`
	Patterns   int     `json:"patterns"`
	Throughput float64 `json:"throughput_pattern_ops_per_s"`
}

// RebalanceEvent records one executed repartition of a multi-device
// instance: the batch after which it ran, the partition boundaries before
// and after, how many patterns moved, and the modeled speedup that
// justified the move.
type RebalanceEvent struct {
	Batch            int     `json:"batch"`
	OldHi            []int   `json:"old_hi"`
	NewHi            []int   `json:"new_hi"`
	Migrated         int     `json:"migrated"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
}

// Kernel returns the stats recorded for one kernel family ("partials",
// "root", "edge", "matrices", "derivatives", "rescale"), or a zero value.
func (s Stats) Kernel(name string) KernelStats {
	for _, k := range s.Kernels {
		if k.Kernel == name {
			return k
		}
	}
	return KernelStats{Kernel: name}
}

// KernelStats aggregates one kernel family's recorded invocations: Ops
// logical operations in Calls timed invocations, their Total, Min and Max
// wall time and the non-empty log₂ duration buckets.
type KernelStats = trace.KernelStats

// HistogramBucket is one non-empty log₂ duration bucket: Count invocations
// took at most UpperBound (and longer than the previous bucket's bound).
type HistogramBucket = trace.HistogramBucket

// LevelTrace records one scheduler phase of an UpdatePartials batch: Ops
// operations run as Tasks concurrent tasks, completing in Wall time. Under
// futures a phase is a dependency level, one task per operation; under the
// pattern-slab strategies it is the whole batch, one task per slab. Batch is
// the 1-based batch number; Level indexes the phase within it.
type LevelTrace = trace.LevelTrace

// Stats returns the instance's telemetry snapshot. Safe to call while other
// goroutines drive the instance's sibling instances; note the instance
// itself is still single-goroutine for computation methods. The snapshot is
// exact at quiescence and monotone in flight: read while a computation is
// recording, each counter is valid and never decreases from one call to the
// next, but two counters may differ by the operations in flight (a kernel's
// Calls can be ahead of its histogram). The /metrics endpoint of ServeDebug
// renders this snapshot and carries the same guarantee.
func (in *Instance) Stats() Stats {
	d := kernels.Dims{StateCount: in.cfg.StateCount, PatternCount: in.cfg.PatternCount, CategoryCount: in.cfg.CategoryCount}
	snap := in.tr.Stats(flops.PartialsOp(d))
	out := Stats{
		Implementation:  in.impl,
		Strategy:        in.strategy,
		Enabled:         snap.Enabled,
		TotalFlops:      snap.TotalFlops,
		EffectiveGFLOPS: snap.EffectiveGFLOPS,
		Batches:         snap.Batches,
		Kernels:         snap.Kernels,
		Levels:          snap.Levels,
	}
	if me, ok := in.eng.(*multiimpl.Engine); ok {
		if rs, enabled := me.RebalanceStats(); enabled {
			for i := range rs.Lo {
				out.Backends = append(out.Backends, BackendStats{
					Lo:         rs.Lo[i],
					Hi:         rs.Hi[i],
					Patterns:   rs.Hi[i] - rs.Lo[i],
					Throughput: rs.Throughput[i],
				})
			}
			out.Rebalances = rs.Rebalances
			out.PatternsMigrated = rs.PatternsMigrated
			for _, ev := range rs.Events {
				out.RebalanceEvents = append(out.RebalanceEvents, RebalanceEvent{
					Batch:            ev.Batch,
					OldHi:            ev.OldHi,
					NewHi:            ev.NewHi,
					Migrated:         ev.Migrated,
					PredictedSpeedup: ev.PredictedSpeedup,
				})
			}
		}
	}
	return out
}

// ReuseStats is a snapshot of the incremental re-evaluation counters of an
// instance created with FlagReuse: how many submitted partials operations and
// transition-matrix updates were skipped because their inputs were unchanged
// (hits) versus computed (misses), and how many buffer invalidations setters
// reported. An instance without FlagReuse yields Enabled == false and zero
// counters. OpHitRate and MatrixHitRate give the skipped fractions.
type ReuseStats = reuse.Stats

// ReuseStats returns the instance's incremental re-evaluation counters.
// Counters accumulate over the instance's lifetime; on multi-device
// instances they cover the whole instance (every backend makes identical
// skip decisions, see multiimpl).
func (in *Instance) ReuseStats() ReuseStats {
	if r, ok := in.eng.(interface{ ReuseStats() reuse.Stats }); ok {
		return r.ReuseStats()
	}
	return ReuseStats{}
}

// ResetStats clears all telemetry counters and histograms — the flop count
// with them — and drops the level traces; the enabled switch and the
// retained spans are unchanged.
func (in *Instance) ResetStats() { in.tr.ResetStats() }

// EnableTelemetry switches collection on or off at runtime: the recorder's
// stats gate. With both gates off an instrumented call costs a single atomic
// load.
func (in *Instance) EnableTelemetry(on bool) { in.tr.SetStatsEnabled(on) }

// TelemetryEnabled reports whether collection is currently on.
func (in *Instance) TelemetryEnabled() bool { return in.tr.StatsEnabled() }

// strategyName is the reported scheduling-strategy label of a CPU mode
// (device-backed instances report "device" and multi-device instances
// "multi-device").
func strategyName(mode cpuimpl.Mode) string {
	switch mode {
	case cpuimpl.ThreadPoolHybrid:
		return "thread-pool-hybrid"
	case cpuimpl.ThreadPool:
		return "thread-pool"
	case cpuimpl.ThreadCreate:
		return "thread-create"
	case cpuimpl.Futures:
		return "futures"
	case cpuimpl.SSE:
		return "sse"
	default:
		return "serial"
	}
}
