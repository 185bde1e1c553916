package gobeagle

import "strings"

// Flags select implementation preferences when creating an instance,
// following the spirit of the BEAGLE_FLAG_* constants: precision, CPU
// vectorization, the CPU threading model, and accelerator kernel options.
type Flags uint64

// Instance creation flags.
const (
	// FlagPrecisionSingle computes in float32; the default is float64.
	FlagPrecisionSingle Flags = 1 << iota
	// FlagVectorSSE runs the unthreaded CPU implementation on the kernels
	// specialised for the state count: 4-state unrolled (SSE-style) for
	// nucleotides, the AVX2 wide-state kernels for 5 to 64 states (amino
	// acids, codons) on amd64 CPUs that have AVX2, generic otherwise.
	// Without it (and without a threading flag) the CPU resource runs the
	// serial implementation on the generic loop-over-states kernels, the
	// baseline of the paper's speedup figures. Combining it with a
	// threading flag changes nothing: the threaded implementations are
	// built on the vectorised kernels already.
	FlagVectorSSE
	// FlagThreadingFutures uses per-operation asynchronous tasks (§VI-A):
	// each dependency level of a batch is one phase, every operation of the
	// level one goroutine over all patterns.
	// Like every threading flag it selects how work is partitioned, not
	// which kernels run: all four threaded implementations are layered on
	// the vectorised path, as BEAGLE's are, and execute the kernels
	// specialised for the state count (4-state unrolled for nucleotides,
	// AVX2 wide-state for 5 to 64 states where the CPU has AVX2, generic
	// otherwise). Every specialisation reproduces the generic kernels'
	// results bit for bit on amd64.
	FlagThreadingFutures
	// FlagThreadingThreadCreate creates threads per batch across site
	// patterns (§VI-B): one fresh goroutine per pattern slab, each running
	// the whole operation list over its slab; below 512 patterns the batch
	// runs on the calling goroutine.
	FlagThreadingThreadCreate
	// FlagThreadingThreadPool runs the same pattern slabs on a persistent
	// worker pool (§VI-C), which also integrates the root; the
	// best-performing CPU threading model in the paper.
	FlagThreadingThreadPool
	// FlagThreadingThreadPoolHybrid runs pattern slabs on the persistent
	// pool with no whole-problem threshold: one slab per 64 patterns, up to
	// the thread count, so small-pattern problems still parallelize instead
	// of degrading to serial.
	FlagThreadingThreadPoolHybrid
	// FlagDisableFMA models accelerator kernels built without fused
	// multiply–add, the Table IV ablation: on a device that advertises FMA
	// the accelerator is charged the no-FMA rate in its cost model. Results
	// are unchanged — every accelerator runs the CPU engines' kernels.
	FlagDisableFMA
	// FlagKernelGPU forces the GPU-style one-work-item-per-entry kernels on
	// a CPU-class OpenCL device (the "OpenCL-GPU on Xeon" row of Table V).
	FlagKernelGPU
	// FlagKernelX86 forces the loop-over-states x86 kernels on a GPU
	// device; chiefly for experimentation.
	FlagKernelX86
	// FlagTelemetry enables the observability layer at creation: per-kernel
	// operation counters and duration histograms, effective-GFLOPS
	// accounting, and scheduler level traces, read through Instance.Stats.
	// Collection can also be toggled later with Instance.EnableTelemetry.
	FlagTelemetry
	// FlagRebalance enables adaptive load rebalancing on multi-device
	// instances: per-backend throughput is measured every UpdatePartials
	// batch and the pattern partition is migrated between backends when the
	// measured split has drifted past a hysteresis threshold (§IX). Ignored
	// by single-resource instances.
	FlagRebalance
	// FlagTrace enables the span tracer at creation: timeline spans from the
	// scheduler (batches, dependency levels), workers, the modeled device
	// clock (kernel launches, transfers) and multi-device coordination
	// (barriers, rebalances, migrations), exported as Chrome trace-event
	// JSON through Instance.TraceJSON. Collection can also be toggled later
	// with Instance.EnableTrace.
	FlagTrace
	// FlagReuse enables incremental re-evaluation: the engine tracks, per
	// destination buffer, the operation signature and input versions of the
	// last computation, and UpdatePartials / UpdateTransitionMatrices skip
	// work whose inputs are unchanged since the last identical request.
	// Clients resubmit full peel lists every iteration; only the dirtied
	// path from a mutated buffer, matrix or model parameter to the root is
	// recomputed. Results are bit-identical to reuse-off because every
	// kernel is deterministic. Counters are read through
	// Instance.ReuseStats.
	FlagReuse
)

// threadingFlags lists the mutually exclusive CPU threading selections.
const threadingFlags = FlagThreadingFutures | FlagThreadingThreadCreate |
	FlagThreadingThreadPool | FlagThreadingThreadPoolHybrid

// String renders the set flags for diagnostics.
func (f Flags) String() string {
	if f == 0 {
		return "none"
	}
	names := []struct {
		bit  Flags
		name string
	}{
		{FlagPrecisionSingle, "PRECISION_SINGLE"},
		{FlagVectorSSE, "VECTOR_SSE"},
		{FlagThreadingFutures, "THREADING_FUTURES"},
		{FlagThreadingThreadCreate, "THREADING_THREAD_CREATE"},
		{FlagThreadingThreadPool, "THREADING_THREAD_POOL"},
		{FlagThreadingThreadPoolHybrid, "THREADING_THREAD_POOL_HYBRID"},
		{FlagDisableFMA, "NO_FMA"},
		{FlagKernelGPU, "KERNEL_GPU"},
		{FlagKernelX86, "KERNEL_X86"},
		{FlagTelemetry, "TELEMETRY"},
		{FlagRebalance, "REBALANCE"},
		{FlagTrace, "TRACE"},
		{FlagReuse, "REUSE"},
	}
	var out []string
	for _, n := range names {
		if f&n.bit != 0 {
			out = append(out, n.name)
		}
	}
	return strings.Join(out, "|")
}
