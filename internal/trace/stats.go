package trace

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"gobeagle/internal/flops"
)

// families names the aggregated kernel families in report order.
var families = [...]string{"partials", "root", "edge", "matrices", "derivatives", "rescale"}

// family maps a span to the index of the family aggregate it feeds and the
// logical operations it counts; -1 for spans no aggregate counts. A
// multi-device barrier is its instance's partials batch (its backends record
// through span-only views), and a matrices span that computed nothing — every
// matrix reused — ran no kernel.
//
//beagle:noalloc
func family(s *Span) (int, int64) {
	switch s.Kind {
	case KindBatch:
		return 0, s.Arg0
	case KindBarrier:
		return 0, s.Arg1
	case KindRoot:
		return 1, 1
	case KindEdge:
		return 2, 1
	case KindMatrices:
		if s.Arg0 > 0 {
			return 3, s.Arg0
		}
	case KindDerivatives:
		return 4, s.Arg0
	case KindRescale:
		return 5, 1
	}
	return -1, 0
}

// histBuckets is the number of log₂ duration buckets. Bucket b counts calls
// whose duration in nanoseconds has bit length b (i.e. lies in
// [2^(b-1), 2^b)); the last bucket absorbs everything longer (≈2s and up).
const histBuckets = 32

// LevelCapacity is the number of most recent level spans Stats reports.
const LevelCapacity = 256

// aggregate is the atomic accumulator for one kernel family.
type aggregate struct {
	ops     atomic.Uint64 // logical operations (e.g. partials ops in a batch)
	calls   atomic.Uint64 // timed invocations (histogram samples)
	totalNS atomic.Int64
	minNS   atomic.Int64 // math.MaxInt64 while unset
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// aggregates are a tracer's per-family accumulators. levelsFrom is the
// sequence number Stats.Levels starts at, moved by ResetStats.
type aggregates struct {
	fam        [len(families)]aggregate
	levelsFrom atomic.Uint64
}

func newAggregates() *aggregates {
	a := &aggregates{}
	for i := range a.fam {
		a.fam[i].minNS.Store(math.MaxInt64)
	}
	return a
}

//beagle:noalloc
func (a *aggregates) record(s *Span) {
	f, ops := family(s)
	if f < 0 {
		return
	}
	m := &a.fam[f]
	ns := max(s.Dur, 0)
	m.ops.Add(uint64(ops))
	m.calls.Add(1)
	m.totalNS.Add(ns)
	for {
		cur := m.minNS.Load()
		if ns >= cur || m.minNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := m.maxNS.Load()
		if ns <= cur || m.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	m.buckets[min(bits.Len64(uint64(ns)), histBuckets-1)].Add(1)
}

// ResetStats clears every aggregate and drops the level spans from
// Stats.Levels; the gates and the retained spans are unchanged.
func (t *Tracer) ResetStats() {
	if t == nil || t.stats == nil {
		return
	}
	for i := range t.stats.fam {
		m := &t.stats.fam[i]
		m.ops.Store(0)
		m.calls.Store(0)
		m.totalNS.Store(0)
		m.minNS.Store(math.MaxInt64)
		m.maxNS.Store(0)
		for b := range m.buckets {
			m.buckets[b].Store(0)
		}
	}
	t.stats.levelsFrom.Store(t.log.seq.Load())
}

// Stats is a view of a tracer's aggregates that is exact at quiescence and
// monotone in flight. Recording updates each counter as an independent
// atomic and a snapshot reads them one by one, without a sequence guard.
// Taken while no recording is in progress, every figure is exact and the
// figures agree (Ops, Calls, Total and the histogram describe the same
// calls). Taken concurrently with recording, each figure is individually
// valid and never moves backwards between successive snapshots (Min never
// rises), but figures may differ from each other by the calls in flight:
// Calls can be ahead of the histogram's sample count, Ops ahead of Calls.
// Consumers that divide one figure by another (means, rates) should expect
// that skew, not an error. Instance.Stats and the /metrics exporters inherit
// this guarantee.
type Stats struct {
	Enabled bool
	// TotalFlops is the effective floating-point operation count of the
	// partials updates (the paper's §V-A measure): the per-operation count
	// passed to Tracer.Stats times the partials family's Ops.
	TotalFlops float64
	// EffectiveGFLOPS relates TotalFlops to the partials family's total
	// wall time — the throughput genomictest and beaglebench report.
	EffectiveGFLOPS float64
	// Batches counts partials batches: the partials family's Calls.
	Batches uint64
	// Kernels holds stats for every family with recorded calls.
	Kernels []KernelStats
	// Levels are the most recent retained level spans, oldest first
	// (threaded CPU strategies only), at most LevelCapacity.
	Levels []LevelTrace
}

// Kernel returns the stats for one kernel family, or a zero value.
func (s Stats) Kernel(name string) KernelStats {
	for _, k := range s.Kernels {
		if k.Kernel == name {
			return k
		}
	}
	return KernelStats{Kernel: name}
}

// KernelStats aggregates one kernel family's recorded invocations.
type KernelStats struct {
	// Kernel names the family: "partials", "root", "edge", "matrices",
	// "derivatives" or "rescale".
	Kernel string `json:"kernel"`
	// Ops counts logical operations (individual partials operations across
	// all batches); Calls counts timed invocations — one per batch for
	// batched kernels, so Ops ≥ Calls.
	Ops   uint64 `json:"ops"`
	Calls uint64 `json:"calls"`
	// Total, Min and Max aggregate the per-invocation wall times.
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	// Histogram holds the non-empty log₂ duration buckets, ascending.
	Histogram []HistogramBucket `json:"histogram,omitempty"`
}

// MeanPerOp is the average wall time attributed to one logical operation.
func (k KernelStats) MeanPerOp() time.Duration {
	if k.Ops == 0 {
		return 0
	}
	return k.Total / time.Duration(k.Ops)
}

// MeanPerCall is the average wall time of one timed invocation.
func (k KernelStats) MeanPerCall() time.Duration {
	if k.Calls == 0 {
		return 0
	}
	return k.Total / time.Duration(k.Calls)
}

// HistogramBucket is one non-empty log₂ duration bucket: Count invocations
// took at most UpperBound (and longer than the previous bucket's bound).
type HistogramBucket struct {
	UpperBound time.Duration `json:"upper_bound_ns"`
	Count      uint64        `json:"count"`
}

// LevelTrace is one scheduler phase of a partials batch, read back from a
// KindLevel span: Ops operations run as Tasks concurrent tasks, completing
// in Wall time. Under futures a phase is a dependency level, one task per
// operation; under the pattern-slab strategies it is the whole batch, one
// task per slab. Batch is the 1-based batch number; Level indexes the phase
// within it.
type LevelTrace struct {
	Batch uint64        `json:"batch"`
	Level int           `json:"level"`
	Ops   int           `json:"ops"`
	Tasks int           `json:"tasks"`
	Wall  time.Duration `json:"wall_ns"`
}

// Stats snapshots the aggregates, with the guarantee the Stats type
// documents, crediting each partials operation flopsPerOp effective
// floating-point operations (flops.PartialsOp of the instance's dimensions).
// A nil tracer or a span-only view yields a zero snapshot.
func (t *Tracer) Stats(flopsPerOp float64) Stats {
	if t == nil || t.stats == nil {
		return Stats{}
	}
	snap := Stats{Enabled: t.StatsEnabled()}
	for f := range t.stats.fam {
		m := &t.stats.fam[f]
		calls := m.calls.Load()
		if calls == 0 {
			continue
		}
		ks := KernelStats{
			Kernel: families[f],
			Ops:    m.ops.Load(),
			Calls:  calls,
			Total:  time.Duration(m.totalNS.Load()),
			Max:    time.Duration(m.maxNS.Load()),
		}
		if min := m.minNS.Load(); min != math.MaxInt64 {
			ks.Min = time.Duration(min)
		}
		for b := range m.buckets {
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
	p := snap.Kernel("partials")
	snap.Batches = p.Calls
	snap.TotalFlops = flopsPerOp * float64(p.Ops)
	if p.Total > 0 {
		snap.EffectiveGFLOPS = flops.GFLOPS(snap.TotalFlops, p.Total)
	}
	from := t.stats.levelsFrom.Load()
	levels := t.retained(gateStats, func(s *Span) bool { return s.Kind == KindLevel && s.Seq >= from })
	for _, s := range levels[max(len(levels)-LevelCapacity, 0):] {
		level, tasks := levelOf(s.Arg0)
		snap.Levels = append(snap.Levels, LevelTrace{Batch: s.Batch, Level: level, Ops: int(s.Arg1), Tasks: tasks, Wall: time.Duration(s.Dur)})
	}
	return snap
}

// KindSummary aggregates the retained spans of one kind: how many there are
// and their summed duration, under the layer name the exported timeline uses.
type KindSummary struct {
	Kind    string `json:"kind"`
	Layer   string `json:"layer"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// Summarize folds spans into one KindSummary per kind, sorted by layer and
// then kind, both in rendering order.
func Summarize(spans []Span) []KindSummary {
	var byKind [numKinds]KindSummary
	for _, s := range spans {
		if s.Kind < numKinds {
			byKind[s.Kind].Count++
			byKind[s.Kind].TotalNs += s.Dur
		}
	}
	out := []KindSummary{}
	for l := Layer(0); l < numLayers; l++ {
		for k := Kind(0); k < numKinds; k++ {
			if sum := byKind[k]; sum.Count > 0 && k.Layer() == l {
				sum.Kind, sum.Layer = k.String(), l.String()
				out = append(out, sum)
			}
		}
	}
	return out
}
