// Package cpuimpl provides the host CPU implementations of the library,
// reproducing the paper's CPU lineage (§IV-D, §VI):
//
//   - Serial: the original single-threaded implementation on the generic
//     loop-over-states kernels, the baseline of every speedup figure in the
//     paper;
//   - SSE: the serial implementation on the vectorised kernels, the analogue
//     of the SSE intrinsics path: 4-state unrolled for nucleotides, the AVX2
//     wide-state family for 5 to 64 states where the CPU has AVX2, generic
//     otherwise;
//   - Futures: concurrency across independent operations in the tree
//     (§VI-A) — operations are grouped into dependency levels and each
//     operation of a level runs as its own asynchronous task;
//   - ThreadCreate: per-call goroutine creation partitioning the site
//     patterns into equal chunks, with a minimum pattern count below which
//     execution stays serial (§VI-B);
//   - ThreadPool: a persistent worker pool used for both the
//     partial-likelihoods operations and the root likelihood integration
//     (§VI-C), the design that won in Table III;
//   - ThreadPoolHybrid: the fusion of the futures and thread-pool designs —
//     every (operation, pattern-chunk) pair of a dependency level is
//     dispatched onto the same persistent pool, so wide trees with small
//     pattern counts (where pure pattern chunking degrades to serial) still
//     saturate the workers through operation-level concurrency.
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

// HybridMinChunk is the smallest pattern span the hybrid scheduler will cut
// an operation into. Unlike DefaultMinPatterns it bounds the chunk, not the
// whole problem: a 128-pattern level of 8 independent operations still
// yields 16 concurrent tasks instead of degrading to serial execution.
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
	pool        *workerPool
	tel         *telemetry.Collector
	tr          *trace.Tracer
	lane        int32
	// site is the per-pattern scratch of the root integration.
	site []float64
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
		e.pool = newWorkerPool(threads, mode.String())
	}
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
		e.pool.close()
		e.pool = nil
	}
	return nil
}

// exec runs one resolved operation for patterns [lo, hi) with the engine's
// bound kernels.
func (e *Engine[T]) exec(r *engine.ResolvedOp[T], lo, hi int) {
	d := e.Cfg.Dims
	switch {
	case r.S2 != nil:
		e.kern.StatesStates(r.Out, r.S1, r.M1, r.S2, r.M2, d, lo, hi)
	case r.S1 != nil:
		e.kern.StatesPartials(r.Out, r.S1, r.M1, r.P2, r.M2, d, lo, hi)
	default:
		e.kern.PartialsPartials(r.Out, r.P1, r.M1, r.P2, r.M2, d, lo, hi)
	}
	// Fixed scaling first: previously written factors are applied to the
	// fresh partials, then an optional rescale captures the residual.
	if r.ReadScale != nil {
		kernels.ApplyReadScale(r.Out, r.ReadScale, d, lo, hi)
	}
	if r.WriteScale != nil {
		kernels.RescalePartials(r.Out, r.WriteScale, d, lo, hi)
	}
}

// UpdatePartials executes the operation list with the engine's strategy.
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
	var batch uint64
	if e.tel.Enabled() {
		batch = e.tel.NextBatch()
		start = time.Now()
	}
	var tstart int64
	var tbatch uint64
	traceOn := e.tr.Enabled()
	if traceOn {
		tbatch = e.tr.NextBatch()
		tstart = e.tr.Now()
	}
	switch e.mode {
	case Serial, SSE:
		e.runSerial(rops)
	case Futures:
		e.runFutures(rops, batch, tbatch)
	case ThreadCreate:
		for i := range rops {
			e.runThreadCreate(&rops[i])
		}
	case ThreadPool:
		for i := range rops {
			e.runThreadPool(&rops[i], tbatch)
		}
	case ThreadPoolHybrid:
		e.runHybrid(rops, batch, tbatch)
	}
	if !start.IsZero() {
		e.tel.Record(telemetry.KernelPartials, len(rops), time.Since(start))
		e.tel.AddFlops(flops.PartialsOp(e.Cfg.Dims) * float64(len(rops)))
	}
	if traceOn {
		e.tr.Record(trace.Span{Kind: trace.KindBatch, Lane: e.lane, Batch: tbatch,
			Start: tstart, Dur: e.tr.Now() - tstart, Arg0: int64(len(rops)), Arg1: int64(skipped)})
	}
	return nil
}

// eachChunk calls f for every non-empty span of the equal n-way split of the
// patterns [0, p).
func eachChunk(p, n int, f func(lo, hi int)) {
	for w := 0; w < n; w++ {
		if lo, hi := w*p/n, (w+1)*p/n; lo < hi {
			f(lo, hi)
		}
	}
}

// levelClock brackets one dependency level for the batch tracer and the span
// tracer; the zero value (both disabled) takes no timestamps.
type levelClock struct {
	start   time.Time
	tstart  int64
	traceOn bool
}

func (e *Engine[T]) beginLevel() (c levelClock) {
	if e.tel.Enabled() {
		c.start = time.Now()
	}
	if c.traceOn = e.tr.Enabled(); c.traceOn {
		c.tstart = e.tr.Now()
	}
	return c
}

func (e *Engine[T]) endLevel(c levelClock, batch, tbatch uint64, level, ops, tasks int) {
	if !c.start.IsZero() {
		e.tel.TraceLevel(batch, level, ops, tasks, time.Since(c.start))
	}
	if c.traceOn {
		e.tr.Record(trace.Span{Kind: trace.KindLevel, Lane: e.lane, Batch: tbatch,
			Start: c.tstart, Dur: e.tr.Now() - c.tstart, Arg0: int64(level), Arg1: int64(ops)})
	}
}

// runSerial executes the operations one after another on the calling
// goroutine, each over its full pattern range.
func (e *Engine[T]) runSerial(ops []engine.ResolvedOp[T]) {
	p := e.Cfg.Dims.PatternCount
	for i := range ops {
		e.exec(&ops[i], 0, p)
	}
}

// runFutures executes operations level by level; operations within a level
// are independent in the tree topology and run concurrently, each as one
// asynchronous task computing its full pattern range (§VI-A).
func (e *Engine[T]) runFutures(ops []engine.ResolvedOp[T], batch, tbatch uint64) {
	p := e.Cfg.Dims.PatternCount
	for li, level := range opLevels(ops) {
		c := e.beginLevel()
		var wg sync.WaitGroup
		wg.Add(len(level))
		for _, r := range level {
			go func(r *engine.ResolvedOp[T]) {
				defer wg.Done()
				e.exec(r, 0, p)
			}(r)
		}
		wg.Wait()
		e.endLevel(c, batch, tbatch, li, len(level), len(level))
	}
}

// runThreadCreate spawns fresh goroutines for one operation, partitioning
// the patterns into equal chunks (§VI-B). Below the minimum pattern count it
// stays serial.
func (e *Engine[T]) runThreadCreate(r *engine.ResolvedOp[T]) {
	p := e.Cfg.Dims.PatternCount
	if p < e.minPatterns || e.threads < 2 {
		e.exec(r, 0, p)
		return
	}
	var wg sync.WaitGroup
	eachChunk(p, e.threads, func(lo, hi int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.exec(r, lo, hi)
		}()
	})
	wg.Wait()
}

// submit queues patterns [lo, hi) of one operation on the worker pool,
// recording a task span on the executing worker's lane when tracing.
func (e *Engine[T]) submit(wg *sync.WaitGroup, r *engine.ResolvedOp[T], lo, hi int, traceOn bool, tbatch uint64) {
	wg.Add(1)
	e.pool.submit(func(worker int) {
		defer wg.Done()
		if !traceOn {
			e.exec(r, lo, hi)
			return
		}
		ts := e.tr.Now()
		e.exec(r, lo, hi)
		e.tr.Record(trace.Span{Kind: trace.KindTask, Lane: int32(worker), Batch: tbatch,
			Start: ts, Dur: e.tr.Now() - ts, Arg0: int64(hi - lo)})
	})
}

// runThreadPool dispatches one operation's pattern chunks onto the
// persistent worker pool (§VI-C).
func (e *Engine[T]) runThreadPool(r *engine.ResolvedOp[T], tbatch uint64) {
	p := e.Cfg.Dims.PatternCount
	if p < e.minPatterns || e.threads < 2 {
		e.exec(r, 0, p)
		return
	}
	traceOn := e.tr.Enabled()
	var wg sync.WaitGroup
	eachChunk(p, e.threads, func(lo, hi int) { e.submit(&wg, r, lo, hi, traceOn, tbatch) })
	wg.Wait()
}

// runHybrid executes operations level by level like runFutures, but instead
// of one task per operation it dispatches every (operation, pattern-chunk)
// pair of a level onto the persistent worker pool. The chunk count adapts to
// the level width: wide levels run one chunk per operation (pure op-level
// concurrency), narrow levels split patterns until the pool is saturated,
// and no chunk is cut below HybridMinChunk patterns — so small-pattern
// problems with independent operations no longer fall back to serial.
func (e *Engine[T]) runHybrid(ops []engine.ResolvedOp[T], batch, tbatch uint64) {
	if e.threads < 2 && !e.tel.Enabled() && !e.tr.Enabled() {
		// Nothing to overlap and nobody watching the leveling: skip it.
		e.runSerial(ops)
		return
	}
	for li, level := range opLevels(ops) {
		e.runHybridLevel(level, batch, tbatch, li)
	}
}

// HybridChunks returns how many pattern chunks each operation of a level is
// split into: enough tasks to cover the worker count, bounded so that no
// chunk spans fewer than HybridMinChunk patterns (and always at least one).
// Exported so the analytic CPU performance model shares the exact policy.
func HybridChunks(levelWidth, patterns, threads int) int {
	chunks := (threads + levelWidth - 1) / levelWidth
	if maxChunks := (patterns + HybridMinChunk - 1) / HybridMinChunk; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// runHybridLevel dispatches one dependency level's (operation, chunk) tasks
// and waits for the barrier at the end of the level.
func (e *Engine[T]) runHybridLevel(level []*engine.ResolvedOp[T], batch, tbatch uint64, levelIdx int) {
	p := e.Cfg.Dims.PatternCount
	c := e.beginLevel()
	var tasks int
	if e.threads < 2 || (len(level) == 1 && p < e.minPatterns) {
		// One worker, or a single small operation that gains nothing from
		// chunking: stay on the calling goroutine, exactly as the plain
		// thread-pool strategy does. The leveling is still reported so the
		// batch tracer stays meaningful on one-core hosts.
		for _, r := range level {
			e.exec(r, 0, p)
		}
		tasks = len(level)
	} else {
		n := HybridChunks(len(level), p, e.threads)
		var wg sync.WaitGroup
		for _, r := range level {
			eachChunk(p, n, func(lo, hi int) {
				tasks++
				e.submit(&wg, r, lo, hi, c.traceOn, tbatch)
			})
		}
		wg.Wait()
	}
	e.endLevel(c, batch, tbatch, levelIdx, len(level), tasks)
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
// separately. This is the single dependency analyzer used by both the
// Futures and the ThreadPoolHybrid strategies.
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
// the per-pattern site likelihoods are computed on the worker pool, as
// §VI-C describes.
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
	d := e.Cfg.Dims
	if cap(e.site) < d.PatternCount {
		e.site = make([]float64, d.PatternCount)
	}
	site := e.site[:d.PatternCount]
	if e.pool != nil && d.PatternCount >= e.minPatterns && e.threads > 1 {
		var wg sync.WaitGroup
		eachChunk(d.PatternCount, e.threads, func(lo, hi int) {
			wg.Add(1)
			e.pool.submit(func(int) {
				defer wg.Done()
				kernels.SiteLikelihoods(site, root, e.CatWts, e.Freqs, d, lo, hi)
			})
		})
		wg.Wait()
	} else {
		kernels.SiteLikelihoods(site, root, e.CatWts, e.Freqs, d, 0, d.PatternCount)
	}
	return site, scale, nil
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
