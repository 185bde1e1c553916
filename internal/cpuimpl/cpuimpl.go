// Package cpuimpl provides the host CPU implementations of the library,
// reproducing the paper's CPU lineage (§IV-D, §VI) as six plans of one
// executor. A phase runs n tasks and returns at one barrier: inline when n is
// 1, on the persistent worker pool in the pool modes, on fresh goroutines
// otherwise. Every kernel a batch runs (partials, ApplyReadScale,
// RescalePartials) is independent per pattern, so a task that runs the whole
// resolved list in submission order over its own pattern slab meets every
// read/write hazard between the operations with no barrier between them:
//
//   - Serial: one inline slab over all patterns on the generic
//     loop-over-states kernels, the baseline of every speedup figure in the
//     paper;
//   - SSE: the same plan on the vectorised kernels, the analogue of the SSE
//     intrinsics path: 4-state unrolled for nucleotides, the AVX2 wide-state
//     family for 5 to 64 states where the CPU has AVX2, generic otherwise;
//   - Futures: concurrency across independent operations in the tree
//     (§VI-A) — one phase per dependency level, each operation of the level
//     one task over all patterns on its own goroutine;
//   - ThreadCreate: one phase of Threads slabs on fresh goroutines, and one
//     inline slab below a minimum pattern count (§VI-B);
//   - ThreadPool: the same slabs on a persistent worker pool, which also
//     runs the root likelihood integration (§VI-C), the design that won in
//     Table III;
//   - ThreadPoolHybrid: slabs on the pool with no whole-problem threshold,
//     min(Threads, ⌈patterns / HybridMinChunk⌉) of them, so small pattern
//     counts still use the workers instead of degrading to serial.
//
// The paper cuts each operation into pattern chunks because BEAGLE's C API
// hands the CPU one call at a time; this engine receives the whole list, so
// the threaded plans pay one hand-off and one barrier per batch, not per
// operation. (The modeled Table III rows in internal/benchmarks keep the
// paper's per-call schedules.)
//
// The threaded strategies are layered on the vectorised path, as BEAGLE's
// are: which kernels run is decided by the state count and the CPU
// (kernels.ForStateCount), bound once per engine, and is the same for SSE and
// all four threaded modes. Only Serial stays on the generic kernels, as the
// reference: the wide-state family reproduces it bit for bit, so above 4
// states every mode returns Serial's exact result. The wide kernels keep
// their scratch (one transposed matrix) on the calling goroutine's stack, so
// nothing here owns or plumbs it: a pool worker's stack grows once and stays.
package cpuimpl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/telemetry"
	"gobeagle/internal/trace"
)

// Mode selects the CPU execution strategy.
type Mode int

// CPU execution strategies, in the order the paper develops them.
const (
	Serial Mode = iota
	SSE
	Futures
	ThreadCreate
	ThreadPool
	ThreadPoolHybrid
)

// String returns the implementation name used in resource listings.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "CPU-serial"
	case SSE:
		return "CPU-SSE"
	case Futures:
		return "CPU-futures"
	case ThreadCreate:
		return "CPU-threadcreate"
	case ThreadPool:
		return "CPU-threadpool"
	case ThreadPoolHybrid:
		return "CPU-threadpool-hybrid"
	default:
		return fmt.Sprintf("CPU-unknown(%d)", int(m))
	}
}

// DefaultMinPatterns is the minimum pattern count for pattern-level
// threading, preventing small problems from running slower threaded than
// serial (the paper uses 512).
const DefaultMinPatterns = 512

// HybridMinChunk is the smallest pattern slab the hybrid plan cuts. Unlike
// DefaultMinPatterns it bounds the slab, not the whole problem: a
// 128-pattern batch still runs as two slabs instead of serially.
const HybridMinChunk = 64

// ErrClosed is returned by every method invoked after Close; it is the
// sentinel all backends share.
var ErrClosed = engine.ErrClosed

// New creates a CPU engine with the given mode, instantiated for the
// precision requested in the configuration.
func New(cfg engine.Config, mode Mode) (engine.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch mode {
	case Serial, SSE, Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid:
	default:
		return nil, fmt.Errorf("cpuimpl: unknown mode %d", int(mode))
	}
	if cfg.SinglePrecision {
		return newEngine[float32](cfg, mode), nil
	}
	return newEngine[float64](cfg, mode), nil
}

// Engine is a CPU implementation of engine.Engine, generic in precision.
type Engine[T kernels.Real] struct {
	*engine.Storage[T]
	mode        Mode
	kern        kernels.Set[T]
	threads     int
	minPatterns int
	pool        *engine.WorkerPool
	tel         *telemetry.Collector
	tr          *trace.Tracer
	lane        int32
	// site is the per-pattern scratch of the root integration.
	site []float64

	// The three tasks are bound once, so a phase allocates nothing; they
	// read the call's state below, set before each phase.
	slabTask, opTask, siteTask engine.Task
	batch                      []engine.ResolvedOp[T]  // slabTask: the resolved list
	level                      []*engine.ResolvedOp[T] // opTask: one dependency level
	root                       []T                     // siteTask: the root partials
	telBatch, traceBatch       uint64                  // the batch's ids, 0 when not recording
}

func newEngine[T kernels.Real](cfg engine.Config, mode Mode) *Engine[T] {
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	minPat := cfg.MinPatternsWork
	if minPat <= 0 {
		minPat = DefaultMinPatterns
	}
	e := &Engine[T]{
		Storage:     engine.NewStorage[T](cfg),
		mode:        mode,
		kern:        kernels.Generic[T](),
		threads:     threads,
		minPatterns: minPat,
		tel:         cfg.Telemetry,
		tr:          cfg.Trace,
		lane:        int32(cfg.TraceLane),
	}
	// Serial is the paper's baseline and the reference other engines are
	// compared against, so it alone keeps the generic kernels.
	if mode != Serial {
		e.kern = kernels.ForStateCount[T](cfg.Dims.StateCount)
	}
	if mode == ThreadPool || mode == ThreadPoolHybrid {
		e.pool = engine.NewWorkerPool(threads, mode.String())
	}
	e.slabTask, e.opTask, e.siteTask = e.runSlab, e.runOp, e.siteSlab
	return e
}

// Name identifies the implementation.
func (e *Engine[T]) Name() string { return e.mode.String() }

// Close shuts down the worker pool, if any. Close is idempotent; methods
// called after Close return ErrClosed (the store refuses them) instead of
// panicking on the torn-down pool.
func (e *Engine[T]) Close() error {
	e.Storage.Close()
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
	return nil
}

// exec runs one resolved operation for patterns [lo, hi) with the engine's
// bound kernels.
func (e *Engine[T]) exec(r *engine.ResolvedOp[T], lo, hi int) {
	d := e.Cfg.Dims
	r.Partials(&e.kern, d, lo, hi)
	// Fixed scaling first: previously written factors are applied to the
	// fresh partials, then an optional rescale captures the residual.
	if r.ReadScale != nil {
		kernels.ApplyReadScale(r.Out, r.ReadScale, d, lo, hi)
	}
	if r.WriteScale != nil {
		kernels.RescalePartials(r.Out, r.WriteScale, d, lo, hi)
	}
}

// UpdatePartials executes the operation list with the engine's plan.
func (e *Engine[T]) UpdatePartials(ops []engine.Operation) error {
	rops, err := e.Resolve(ops)
	if err != nil {
		return err
	}
	rops = e.DropUnchanged(rops)
	skipped := len(ops) - len(rops)
	// Telemetry/trace fast paths: one atomic load each when disabled, no
	// timestamps taken.
	var start time.Time
	e.telBatch, e.traceBatch = 0, 0
	if e.tel.Enabled() {
		e.telBatch = e.tel.NextBatch()
		start = time.Now()
	}
	var tstart int64
	traceOn := e.tr.Enabled()
	if traceOn {
		e.traceBatch = e.tr.NextBatch()
		tstart = e.tr.Now()
	}
	e.batch = rops
	switch {
	case len(rops) == 0:
	case e.mode == Serial || e.mode == SSE: // one inline slab, not traced as a phase
		e.phase(1, e.slabTask)
	case e.mode == Futures:
		for li, level := range opLevels(rops) {
			e.level = level
			e.levelPhase(li, len(level), len(level), e.opTask)
		}
	default:
		e.levelPhase(0, len(rops), e.slabs(), e.slabTask)
	}
	if !start.IsZero() {
		e.tel.Record(telemetry.KernelPartials, len(rops), time.Since(start))
		e.tel.AddFlops(flops.PartialsOp(e.Cfg.Dims) * float64(len(rops)))
	}
	if traceOn {
		e.tr.Record(trace.Span{Kind: trace.KindBatch, Lane: e.lane, Batch: e.traceBatch,
			Start: tstart, Dur: e.tr.Now() - tstart, Arg0: int64(len(rops)), Arg1: int64(skipped)})
	}
	return nil
}

// phase runs t(i, n, worker) for every i in [0, n) and returns when all have
// finished: inline when n is 1, on the worker pool in the pool modes, on
// fresh goroutines otherwise.
func (e *Engine[T]) phase(n int, t engine.Task) {
	switch {
	case n == 1:
		t(0, 1, 0)
	case e.pool != nil:
		e.pool.Run(n, t)
	default:
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer wg.Done()
				t(i, n, i)
			}()
		}
		wg.Wait()
	}
}

// levelPhase runs one phase of a batch and records it as the batch's level
// for the batch tracer and the span tracer: ops operations as n tasks.
func (e *Engine[T]) levelPhase(level, ops, n int, t engine.Task) {
	var start time.Time
	if e.telBatch != 0 {
		start = time.Now()
	}
	var tstart int64
	if e.traceBatch != 0 {
		tstart = e.tr.Now()
	}
	e.phase(n, t)
	if !start.IsZero() {
		e.tel.TraceLevel(e.telBatch, level, ops, n, time.Since(start))
	}
	if e.traceBatch != 0 {
		e.tr.Record(trace.Span{Kind: trace.KindLevel, Lane: e.lane, Batch: e.traceBatch,
			Start: tstart, Dur: e.tr.Now() - tstart, Arg0: int64(level), Arg1: int64(ops)})
	}
}

// slabs is how many pattern slabs a slab phase is cut into: Threads from
// minPatterns patterns up in ThreadCreate and ThreadPool, no more than one
// per HybridMinChunk patterns in ThreadPoolHybrid, and one otherwise.
func (e *Engine[T]) slabs() int {
	p := e.Cfg.Dims.PatternCount
	switch {
	case e.mode == ThreadPoolHybrid:
		return min(e.threads, (p+HybridMinChunk-1)/HybridMinChunk)
	case (e.mode == ThreadCreate || e.mode == ThreadPool) && p >= e.minPatterns:
		return e.threads
	}
	return 1
}

// slab returns slab i of the equal n-way split of the patterns [0, p).
func slab(i, n, p int) (lo, hi int) { return i * p / n, (i + 1) * p / n }

// runSlab is the slab task: the whole resolved list, in submission order,
// over pattern slab i of n. On a pool worker it records a task span on the
// worker's lane.
func (e *Engine[T]) runSlab(i, n, worker int) {
	lo, hi := slab(i, n, e.Cfg.Dims.PatternCount)
	traced := n > 1 && e.pool != nil && e.traceBatch != 0
	var ts int64
	if traced {
		ts = e.tr.Now()
	}
	for j := range e.batch {
		e.exec(&e.batch[j], lo, hi)
	}
	if traced {
		e.tr.Record(trace.Span{Kind: trace.KindTask, Lane: int32(worker), Batch: e.traceBatch,
			Start: ts, Dur: e.tr.Now() - ts, Arg0: int64(hi - lo)})
	}
}

// runOp is the Futures task: operation i of the current dependency level
// over every pattern.
func (e *Engine[T]) runOp(i, _, _ int) { e.exec(e.level[i], 0, e.Cfg.Dims.PatternCount) }

// siteSlab is the root task: the site likelihoods of pattern slab i of n.
func (e *Engine[T]) siteSlab(i, n, _ int) {
	d := e.Cfg.Dims
	lo, hi := slab(i, n, d.PatternCount)
	kernels.SiteLikelihoods(e.site, e.root, e.CatWts, e.Freqs, d, lo, hi)
}

// opLevels groups operations into dependency levels so that all operations
// within a level can run concurrently without data races. An operation is
// pushed to a later level by any hazard on the buffers it touches:
//
//   - read-after-write: a child buffer is the destination of an earlier
//     operation (the tree-topology dependency);
//   - write-after-write: two operations share a Dest, or rescale into the
//     same DestScaleWrite buffer;
//   - write-after-read: the destination overwrites a buffer an earlier
//     operation still reads as a child (serial semantics let the earlier
//     operation see the old contents).
//
// Partials and scale buffers are distinct index spaces and are tracked
// separately. Only the Futures plan levels a batch; the slab plans need no
// levels, as each slab runs the list in submission order.
func opLevels[T kernels.Real](ops []engine.ResolvedOp[T]) [][]*engine.ResolvedOp[T] {
	partialsWriter := make(map[int]int) // partials buffer -> level of last writer
	partialsReader := make(map[int]int) // partials buffer -> highest reading level
	scaleWriter := make(map[int]int)    // scale buffer -> level of last writer
	scaleReader := make(map[int]int)    // scale buffer -> highest reading level
	after := func(l int, m map[int]int, buf int) int {
		if dl, ok := m[buf]; ok && dl+1 > l {
			return dl + 1
		}
		return l
	}
	markRead := func(m map[int]int, buf, l int) {
		if rl, ok := m[buf]; !ok || l > rl {
			m[buf] = l
		}
	}
	var out [][]*engine.ResolvedOp[T]
	for i := range ops {
		op := &ops[i]
		l := 0
		l = after(l, partialsWriter, op.Child1) // RAW
		l = after(l, partialsWriter, op.Child2) // RAW
		l = after(l, partialsWriter, op.Dest)   // WAW
		l = after(l, partialsReader, op.Dest)   // WAR
		if op.DestScaleWrite != engine.None {
			l = after(l, scaleWriter, op.DestScaleWrite) // WAW (scale)
			l = after(l, scaleReader, op.DestScaleWrite) // WAR (scale)
		}
		if op.DestScaleRead != engine.None {
			l = after(l, scaleWriter, op.DestScaleRead) // RAW (scale)
		}
		partialsWriter[op.Dest] = l
		markRead(partialsReader, op.Child1, l)
		markRead(partialsReader, op.Child2, l)
		if op.DestScaleWrite != engine.None {
			scaleWriter[op.DestScaleWrite] = l
		}
		if op.DestScaleRead != engine.None {
			markRead(scaleReader, op.DestScaleRead, l)
		}
		for len(out) <= l {
			out = append(out, nil)
		}
		out[l] = append(out[l], op)
	}
	return out
}

// SiteLogLikelihoods returns per-pattern root log likelihoods
// (log site likelihood plus accumulated scale factors) in a fresh slice.
func (e *Engine[T]) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	site, scale, err := e.siteLikelihoods(rootBuf, cumScaleBuf)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(site))
	for p, s := range site {
		l := math.Log(s)
		if scale != nil {
			l += scale[p]
		}
		out[p] = l
	}
	return out, nil
}

// CalculateRootLogLikelihoods integrates the root partials into the total
// log likelihood. In the pool-backed modes (ThreadPool, ThreadPoolHybrid)
// the per-pattern site likelihoods are one more slab phase on the worker
// pool, as §VI-C describes.
func (e *Engine[T]) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	var start time.Time
	if e.tel.Enabled() {
		start = time.Now()
	}
	var tstart int64
	traceOn := e.tr.Enabled()
	if traceOn {
		tstart = e.tr.Now()
	}
	site, scale, err := e.siteLikelihoods(rootBuf, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	lnL := kernels.RootLogLikelihood(site, e.PatWts, scale, 0, len(site))
	if !start.IsZero() {
		e.tel.Record(telemetry.KernelRoot, 1, time.Since(start))
	}
	if traceOn {
		e.tr.Record(trace.Span{Kind: trace.KindRoot, Lane: e.lane,
			Start: tstart, Dur: e.tr.Now() - tstart, Arg0: int64(len(site))})
	}
	return lnL, nil
}

// siteLikelihoods computes the per-pattern root likelihoods into the
// engine-owned scratch, valid until the next call, and returns them with the
// cumulative scale buffer (nil for None).
func (e *Engine[T]) siteLikelihoods(rootBuf, cumScaleBuf int) ([]float64, []float64, error) {
	root, err := e.PartialsOperand(rootBuf)
	if err != nil {
		return nil, nil, err
	}
	scale, err := e.CumulativeScale(cumScaleBuf)
	if err != nil {
		return nil, nil, err
	}
	p := e.Cfg.Dims.PatternCount
	if cap(e.site) < p {
		e.site = make([]float64, p)
	}
	e.site, e.root = e.site[:p], root
	n := 1
	if e.pool != nil {
		n = e.slabs()
	}
	e.phase(n, e.siteTask)
	return e.site, scale, nil
}

// CalculateEdgeLogLikelihoods integrates across a single branch between the
// parent-side and child-side partials buffers.
func (e *Engine[T]) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	parent, child, m, scale, err := e.EdgeOperands(parentBuf, childBuf, matrix, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	var start time.Time
	if e.tel.Enabled() {
		start = time.Now()
	}
	d := e.Cfg.Dims
	site := make([]float64, d.PatternCount)
	kernels.EdgeSiteLikelihoods(site, parent, child, m, e.CatWts, e.Freqs, d, 0, d.PatternCount)
	lnL := kernels.RootLogLikelihood(site, e.PatWts, scale, 0, d.PatternCount)
	if !start.IsZero() {
		e.tel.Record(telemetry.KernelEdge, 1, time.Since(start))
	}
	return lnL, nil
}

// CalculateEdgeDerivatives integrates across a single branch and returns
// the log likelihood and its first and second derivatives with respect to
// the branch length. matrix, d1Matrix (and d2Matrix unless None) must have
// been computed by UpdateTransitionMatrices / UpdateTransitionDerivatives.
func (e *Engine[T]) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	parent, child, m, scale, err := e.EdgeOperands(parentBuf, childBuf, matrix, cumScaleBuf)
	if err != nil {
		return 0, 0, 0, err
	}
	m1, err := e.Matrix(d1Matrix)
	if err != nil {
		return 0, 0, 0, err
	}
	var m2 []T
	if d2Matrix != engine.None {
		if m2, err = e.Matrix(d2Matrix); err != nil {
			return 0, 0, 0, err
		}
	}
	var start time.Time
	if e.tel.Enabled() {
		start = time.Now()
	}
	d := e.Cfg.Dims
	siteL := make([]float64, d.PatternCount)
	siteD1 := make([]float64, d.PatternCount)
	var siteD2 []float64
	if m2 != nil {
		siteD2 = make([]float64, d.PatternCount)
	}
	kernels.EdgeSiteDerivatives(siteL, siteD1, siteD2, parent, child, m, m1, m2,
		e.CatWts, e.Freqs, d, 0, d.PatternCount)
	lnL := kernels.RootLogLikelihood(siteL, e.PatWts, scale, 0, d.PatternCount)
	d1, d2 := kernels.ReduceEdgeDerivatives(siteL, siteD1, siteD2, e.PatWts, 0, d.PatternCount)
	if !start.IsZero() {
		e.tel.Record(telemetry.KernelEdge, 1, time.Since(start))
	}
	return lnL, d1, d2, nil
}

// Modes returns all CPU modes in presentation order.
func Modes() []Mode {
	return []Mode{Serial, SSE, Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid}
}
