// Package telemetry is the library's runtime observability layer: the
// instrumentation counterpart of the paper's evaluation methodology (§V-A),
// which rests on measuring the core partial-likelihoods function and
// reporting throughput in effective GFLOPS.
//
// A Collector is attached to one engine instance and accumulates, entirely
// through atomic operations (no locks on any hot path):
//
//   - per-kernel operation counters and duration histograms (log₂ buckets),
//     keyed by the Kernel families the implementations instrument;
//   - an effective-floating-point-operation accumulator, fed from
//     internal/flops, from which snapshot-time effective GFLOPS are derived
//     exactly as genomictest and beaglebench report them;
//   - a ring-buffer batch tracer recording each scheduler phase (batch id,
//     phase index, operation count, task count, wall time) of the threaded
//     CPU strategies: a dependency level under futures, a whole batch of
//     pattern slabs otherwise.
//
// The disabled fast path is a single atomic load and branch per batch:
// implementations guard all timing with Enabled(), so instrumentation that
// is compiled in but switched off allocates nothing and stays within the
// <2% overhead budget on the kernel micro-benchmarks. All methods are safe
// on a nil *Collector, which behaves as permanently disabled.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Kernel identifies an instrumented kernel family, the granularity at which
// counters and histograms are kept.
type Kernel int

// Instrumented kernel families, in presentation order.
const (
	// KernelPartials is the partial-likelihoods update batch, the function
	// the paper's entire evaluation measures.
	KernelPartials Kernel = iota
	// KernelRoot is the root-likelihood integration (site likelihoods plus
	// the pattern reduction).
	KernelRoot
	// KernelEdge is the single-branch edge likelihood and edge derivative
	// integration.
	KernelEdge
	// KernelMatrices is transition-matrix computation from an
	// eigendecomposition.
	KernelMatrices
	// KernelDerivatives is derivative transition-matrix computation.
	KernelDerivatives
	// KernelRescale is partials rescaling into scale buffers (accelerator
	// implementations launch it as a distinct kernel; CPU implementations
	// fold it into the partials operation).
	KernelRescale
	numKernels
)

// String returns the kernel family name used in reports.
func (k Kernel) String() string {
	switch k {
	case KernelPartials:
		return "partials"
	case KernelRoot:
		return "root"
	case KernelEdge:
		return "edge"
	case KernelMatrices:
		return "matrices"
	case KernelDerivatives:
		return "derivatives"
	case KernelRescale:
		return "rescale"
	default:
		return "unknown"
	}
}

// Kernels lists every instrumented kernel family in presentation order.
func Kernels() []Kernel {
	out := make([]Kernel, numKernels)
	for i := range out {
		out[i] = Kernel(i)
	}
	return out
}

// histBuckets is the number of log₂ duration buckets. Bucket b counts calls
// whose duration in nanoseconds has bit length b (i.e. lies in
// [2^(b-1), 2^b)); the last bucket absorbs everything longer (≈2s and up).
const histBuckets = 32

// kernelMetric is the atomic accumulator for one kernel family.
type kernelMetric struct {
	ops     atomic.Uint64 // logical operations (e.g. partials ops in a batch)
	calls   atomic.Uint64 // timed invocations (histogram samples)
	totalNS atomic.Int64
	minNS   atomic.Int64 // math.MaxInt64 while unset
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

//beagle:noalloc
func (m *kernelMetric) record(ops int, d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
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
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	m.buckets[b].Add(1)
}

func (m *kernelMetric) reset() {
	m.ops.Store(0)
	m.calls.Store(0)
	m.totalNS.Store(0)
	m.minNS.Store(math.MaxInt64)
	m.maxNS.Store(0)
	for i := range m.buckets {
		m.buckets[i].Store(0)
	}
}

// labels carries the identification strings, stored behind one atomic
// pointer so SetLabels is safe against concurrent snapshots.
type labels struct {
	impl     string
	strategy string
}

// Collector accumulates the metrics of one engine instance. The zero value
// is not usable; construct with New. A nil *Collector is valid everywhere
// and permanently disabled.
type Collector struct {
	enabled atomic.Bool
	labels  atomic.Pointer[labels]
	kernels [numKernels]kernelMetric
	// flopsBits accumulates effective floating-point operations as the bit
	// pattern of a float64, updated by compare-and-swap.
	flopsBits atomic.Uint64
	batches   atomic.Uint64
	trace     traceRing
}

// New creates an empty, disabled collector.
func New() *Collector {
	c := &Collector{}
	for i := range c.kernels {
		c.kernels[i].minNS.Store(math.MaxInt64)
	}
	c.labels.Store(&labels{})
	return c
}

// SetLabels records the implementation and strategy names reported in
// snapshots (e.g. "CPU-threadpool-hybrid", "thread-pool-hybrid").
func (c *Collector) SetLabels(impl, strategy string) {
	if c == nil {
		return
	}
	c.labels.Store(&labels{impl: impl, strategy: strategy})
}

// SetEnabled switches collection on or off. Implementations must treat a
// false value as "record nothing and take no timestamps".
func (c *Collector) SetEnabled(on bool) {
	if c == nil {
		return
	}
	c.enabled.Store(on)
}

// Enabled reports whether the collector is recording. This is the guard on
// every instrumented hot path: one atomic load, no allocation.
//
//beagle:noalloc
func (c *Collector) Enabled() bool {
	return c != nil && c.enabled.Load()
}

// NextBatch returns a fresh 1-based batch identifier for level tracing.
//
//beagle:noalloc
func (c *Collector) NextBatch() uint64 {
	if c == nil {
		return 0
	}
	return c.batches.Add(1)
}

// Record adds one timed invocation covering `ops` logical operations to a
// kernel family's counters and histogram.
//
//beagle:noalloc
func (c *Collector) Record(k Kernel, ops int, d time.Duration) {
	if c == nil || !c.enabled.Load() || k < 0 || k >= numKernels {
		return
	}
	c.kernels[k].record(ops, d)
}

// AddFlops accumulates effective floating-point operations (from
// internal/flops) into the throughput accounting.
//
//beagle:noalloc
func (c *Collector) AddFlops(f float64) {
	if c == nil || !c.enabled.Load() || !(f > 0) {
		return
	}
	for {
		old := c.flopsBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + f)
		if c.flopsBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// TraceLevel records one scheduler phase into the ring buffer: ops
// operations run as tasks concurrent tasks, completing in wall time.
func (c *Collector) TraceLevel(batch uint64, level, ops, tasks int, wall time.Duration) {
	if c == nil || !c.enabled.Load() {
		return
	}
	c.trace.add(&LevelTrace{Batch: batch, Level: level, Ops: ops, Tasks: tasks, Wall: wall})
}

// Reset clears every counter, histogram, the flop accumulator and the trace
// ring; labels and the enabled switch are preserved.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.kernels {
		c.kernels[i].reset()
	}
	c.flopsBits.Store(0)
	c.batches.Store(0)
	c.trace.reset()
}
