package accelimpl

import (
	"math"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/trace"
)

// The setters and getters are the store's. Each is charged to the queue as
// the host↔device copy it stands for, and the setters that can allocate
// re-reserve the store's footprint first, so a buffer the device cannot hold
// is refused before its upload is charged.

// transferred charges one copy of n elements of the given size, either way.
func (e *Engine[T]) transferred(n, size int) {
	e.q.ChargeTransfer(int64(n) * int64(size))
}

// uploaded accounts for a setter the store has just performed.
func (e *Engine[T]) uploaded(n, size int) error {
	if err := e.reserve(); err != nil {
		return err
	}
	e.transferred(n, size)
	return nil
}

// SetTipStates uploads compact states for a tip buffer.
func (e *Engine[T]) SetTipStates(buf int, states []int) error {
	if err := e.Storage.SetTipStates(buf, states); err != nil {
		return err
	}
	return e.uploaded(len(states), 4)
}

// SetTipPartials uploads per-pattern partials for a tip, replicated across
// rate categories.
func (e *Engine[T]) SetTipPartials(buf int, partials []float64) error {
	if err := e.Storage.SetTipPartials(buf, partials); err != nil {
		return err
	}
	return e.uploaded(e.Cfg.Dims.PartialsLen(), e.elemSize())
}

// SetPartials uploads a full partials buffer.
func (e *Engine[T]) SetPartials(buf int, partials []float64) error {
	if err := e.Storage.SetPartials(buf, partials); err != nil {
		return err
	}
	return e.uploaded(len(partials), e.elemSize())
}

// GetPartials downloads a partials buffer.
func (e *Engine[T]) GetPartials(buf int) ([]float64, error) {
	out, err := e.Storage.GetPartials(buf)
	if err == nil {
		e.transferred(len(out), e.elemSize())
	}
	return out, err
}

// ResetScaleFactors zeroes a scale buffer on the device.
func (e *Engine[T]) ResetScaleFactors(scaleBuf int) error {
	if err := e.Storage.ResetScaleFactors(scaleBuf); err != nil {
		return err
	}
	return e.uploaded(e.Cfg.Dims.PatternCount, 8)
}

// uploadMatrix moves a matrix the store produced on the host into its
// sub-buffer of the device pool and points the store at it.
func (e *Engine[T]) uploadMatrix(m int) error {
	view := e.matrixViews[m]
	if err := device.CopyToDevice(e.q, view, e.Matrices[m]); err != nil {
		return err
	}
	e.Matrices[m] = view.Data()
	return nil
}

// SetTransitionMatrix uploads an explicit transition matrix.
func (e *Engine[T]) SetTransitionMatrix(matrix int, values []float64) error {
	if err := e.Storage.SetTransitionMatrix(matrix, values); err != nil {
		return err
	}
	return e.uploadMatrix(matrix)
}

// GetTransitionMatrix downloads a matrix buffer.
func (e *Engine[T]) GetTransitionMatrix(matrix int) ([]float64, error) {
	out, err := e.Storage.GetTransitionMatrix(matrix)
	if err == nil {
		e.transferred(len(out), e.elemSize())
	}
	return out, err
}

// UpdateTransitionMatrices computes the listed matrices on the device, one
// kernel launch per matrix with one work-item per matrix row, so one
// work-group of S items per rate category; each group runs the CPU engines'
// UpdateTransitionMatrix for its category. The eigendecomposition and rates
// stay host-side: they feed the kernel as launch constants.
func (e *Engine[T]) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	d := e.Cfg.Dims
	s := d.StateCount
	rows := d.CategoryCount * s
	cost := device.Cost{
		Flops:      float64(rows) * float64(s) * float64(2*s+2),
		Bytes:      float64(d.MatrixLen()) * float64(e.elemSize()),
		Efficiency: e.efficiency,
		GroupSize:  s,
	}
	rates := e.CatRates
	return e.UpdateMatricesWith(eigenSlot, matrices, edgeLengths, func(m int, ed *kernels.Eigen, edgeLength float64) error {
		out := e.matrixViews[m].Data()
		if err := e.q.LaunchKernel(device.Launch{Global: rows, Local: s}, cost, func(lo, _ int) {
			c := lo / s
			kernels.UpdateTransitionMatrix(out[c*s*s:(c+1)*s*s], ed, edgeLength, rates[c:c+1])
		}); err != nil {
			return err
		}
		e.Matrices[m] = out
		return nil
	})
}

// UpdateTransitionDerivatives computes derivative matrices host-side from
// the eigendecomposition and uploads them into matrix buffers. Derivatives
// are not on the hot path of any of the paper's benchmarks, so the transfer
// cost is acceptable and is charged to the queue like any other upload.
func (e *Engine[T]) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	if err := e.Storage.UpdateTransitionDerivatives(eigenSlot, d1Matrices, d2Matrices, edgeLengths); err != nil {
		return err
	}
	for _, list := range [][]int{d1Matrices, d2Matrices} {
		for _, m := range list {
			if err := e.uploadMatrix(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Kernel-efficiency calibration for the device performance model. Real
// likelihood kernels run well below a device's theoretical roofline; these
// fractions are calibrated once against the paper's measurements and then
// reused for every experiment.
const (
	// gpuBaseEfficiency: fraction of the roofline rate the GPU-style
	// nucleotide kernel achieves (Fig. 4: R9 Nano saturates at 445 GFLOPS
	// against a ~680 GFLOPS memory-bandwidth bound).
	gpuBaseEfficiency = 0.65
	// x86Efficiency: fraction of CPU peak the loop-over-states kernel
	// achieves (Fig. 4: 328 GFLOPS peak on a 2150 GFLOPS-peak dual Xeon).
	x86Efficiency = 0.20
	// x86DRAMFraction: fraction of nominal kernel traffic reaching DRAM on
	// cache-rich CPUs.
	x86DRAMFraction = 0.5
	// gpuStyleOnCPUEfficiency: the GPU-style one-work-item-per-entry
	// kernels are drastically inefficient on CPU-class devices — the very
	// observation that motivated the separate OpenCL-x86 solution (Table V:
	// 15.75 vs ~98 GFLOPS on the dual Xeon).
	gpuStyleOnCPUEfficiency = 0.07
)

// kernelEfficiency returns the calibrated efficiency for the variant and
// state count. Higher-state-count kernels fall further from the roofline
// (register/local-memory pressure): the √(4/S) falloff reproduces the codon
// model's ~16% of peak on the R9 Nano (Fig. 4, 1324 of 8192 GFLOPS).
func (e *Engine[T]) kernelEfficiency() float64 {
	eff := e.efficiency // FMA build penalty, if any
	s := float64(e.Cfg.Dims.StateCount)
	if e.variant == OpenCLX86 {
		return eff * x86Efficiency
	}
	if e.dev.Desc.Kind != device.KindGPU {
		return eff * gpuStyleOnCPUEfficiency
	}
	return eff * gpuBaseEfficiency * math.Sqrt(4/s)
}

// opCost returns the launch cost of one partial-likelihoods operation:
// effective flops from the flops package and roofline memory traffic (two
// child partials read, destination written, matrices read once).
func (e *Engine[T]) opCost() device.Cost {
	d := e.Cfg.Dims
	elem := float64(e.elemSize())
	bytes := float64(d.CategoryCount)*float64(d.PatternCount)*float64(3*d.StateCount)*elem +
		2*float64(d.MatrixLen())*elem
	groupItems := e.groupPats
	if e.variant != OpenCLX86 {
		groupItems = e.groupPats * d.StateCount
	} else {
		bytes *= x86DRAMFraction
	}
	return device.Cost{
		Flops:      flops.PartialsOp(d),
		Bytes:      bytes,
		Efficiency: e.kernelEfficiency(),
		GroupSize:  groupItems,
	}
}

// patternCost is the cost of a streaming kernel that is not a partials
// operation, scheduled in groups of groupPats patterns.
func (e *Engine[T]) patternCost(flops, bytes float64) device.Cost {
	return device.Cost{Flops: flops, Bytes: bytes, Efficiency: e.efficiency, GroupSize: e.groupPats}
}

// perPattern launches a kernel with one work-item per pattern in groups of
// groupPats patterns; body computes the patterns [lo, hi) of one group.
func (e *Engine[T]) perPattern(cost device.Cost, body func(lo, hi int)) error {
	return e.q.LaunchKernel(device.Launch{Global: e.Cfg.Dims.PatternCount, Local: e.groupPats}, cost, body)
}

// UpdatePartials executes the operation list; each operation is one kernel
// launch (plus read-scale and rescale launches when requested).
func (e *Engine[T]) UpdatePartials(ops []engine.Operation) error {
	rops, err := e.Resolve(ops)
	if err != nil {
		return err
	}
	// Between validation and the reuse decision: the destinations Resolve
	// allocated must fit on the device, and a batch that does not fit must
	// fail with the tracker untouched.
	if err := e.reserve(); err != nil {
		return err
	}
	rops = e.DropUnchanged(rops)
	// One gate check: a tracer that is not recording costs one atomic load
	// and takes no timestamps.
	tr := e.Cfg.Trace
	start, on := tr.Begin()
	var batch uint64
	if on {
		batch = tr.NextBatch()
	}
	d := e.Cfg.Dims
	// Both scaling kernels read and write the destination once; applying
	// stored factors also reads them.
	streamed := 2 * float64(d.PartialsLen()) * float64(e.elemSize())
	rescaleCost := e.patternCost(float64(d.PartialsLen()), streamed)
	readScaleCost := e.patternCost(float64(d.PartialsLen()), streamed+float64(d.PatternCount)*8)
	for i := range rops {
		r := &rops[i]
		if err := e.launchOp(r); err != nil {
			return err
		}
		// Fixed scaling first: previously written factors are applied to
		// the fresh partials, then an optional rescale captures the residual.
		if r.ReadScale != nil {
			if err := e.launchScale(readScaleCost, func(lo, hi int) { kernels.ApplyReadScale(r.Out, r.ReadScale, d, lo, hi) }); err != nil {
				return err
			}
		}
		if r.WriteScale != nil {
			if err := e.launchScale(rescaleCost, func(lo, hi int) { kernels.RescalePartials(r.Out, r.WriteScale, d, lo, hi) }); err != nil {
				return err
			}
		}
	}
	if on {
		tr.End(trace.Span{Kind: trace.KindBatch, Lane: int32(e.Cfg.TraceLane), Batch: batch,
			Arg0: int64(len(rops)), Arg1: int64(len(ops) - len(rops))}, start)
	}
	return nil
}

// launchOp runs one partials operation through the bound kernel set.
func (e *Engine[T]) launchOp(r *engine.ResolvedOp[T]) error {
	d := e.Cfg.Dims
	if e.variant == OpenCLX86 {
		// One work-item per pattern, looping over categories and states.
		return e.perPattern(e.opCost(), func(lo, hi int) { r.Partials(&e.kern, d, lo, hi) })
	}
	// GPU variants: one work-item per (category, pattern, state) entry,
	// item = (c·P + p)·S + i. A group holds whole patterns (Local is a
	// multiple of S) and runs them per category, on that category's slices.
	s, p := d.StateCount, d.PatternCount
	one := kernels.Dims{StateCount: s, PatternCount: p, CategoryCount: 1}
	launch := device.Launch{Global: d.PartialsLen(), Local: e.groupPats * s}
	return e.q.LaunchKernel(launch, e.opCost(), func(lo, hi int) {
		for cp, end := lo/s, hi/s; cp < end; {
			c := cp / p
			next := min(end, (c+1)*p)
			run := category(r, c, d)
			run.Partials(&e.kern, one, cp-c*p, next-c*p)
			cp = next
		}
	})
}

// category restricts an operation to rate category c: its partials and
// matrix slices, to be addressed with one category. Compact states are per
// pattern and shared by every category.
func category[T kernels.Real](r *engine.ResolvedOp[T], c int, d kernels.Dims) engine.ResolvedOp[T] {
	n, m := d.PatternCount*d.StateCount, d.StateCount*d.StateCount
	slab := func(b []T, size int) []T {
		if b == nil {
			return nil
		}
		return b[c*size : (c+1)*size]
	}
	return engine.ResolvedOp[T]{Out: slab(r.Out, n), S1: r.S1, S2: r.S2,
		P1: slab(r.P1, n), P2: slab(r.P2, n), M1: slab(r.M1, m), M2: slab(r.M2, m)}
}

// launchScale runs one of the two scaling kernels (read-scale, rescale) over
// a fresh destination, one work-item per pattern.
func (e *Engine[T]) launchScale(cost device.Cost, body func(lo, hi int)) error {
	start, on := e.Cfg.Trace.Begin()
	err := e.perPattern(cost, body)
	if err == nil && on {
		e.Cfg.Trace.End(trace.Span{Kind: trace.KindRescale, Lane: int32(e.Cfg.TraceLane),
			Arg0: int64(e.Cfg.Dims.PatternCount)}, start)
	}
	return err
}

// AccumulateScaleFactors sums the listed scale buffers into cumBuf with a
// per-pattern kernel.
func (e *Engine[T]) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	factors, cum, err := e.ScaleFactors(scaleBufs, cumBuf)
	if err != nil {
		return err
	}
	if err := e.reserve(); err != nil {
		return err
	}
	p := e.Cfg.Dims.PatternCount
	cost := device.Cost{
		Flops:     float64(p * len(factors)),
		Bytes:     float64(p*(len(factors)+1)) * 8,
		GroupSize: e.groupPats,
	}
	if err := e.perPattern(cost, func(lo, hi int) { kernels.AccumulateScaleFactors(cum, factors, lo, hi) }); err != nil {
		return err
	}
	e.Reuse.InvalidateScale(cumBuf)
	return nil
}

// siteLikelihoods runs the integration kernel on the device and downloads
// the per-pattern site likelihoods (into the staging buffer, valid until the
// next integration) plus the cumulative scale factors.
func (e *Engine[T]) siteLikelihoods(rootBuf, cumScaleBuf int) (site, scale []float64, err error) {
	root, err := e.PartialsOperand(rootBuf)
	if err != nil {
		return nil, nil, err
	}
	if scale, err = e.CumulativeScale(cumScaleBuf); err != nil {
		return nil, nil, err
	}
	d := e.Cfg.Dims
	cost := e.patternCost(float64(d.CategoryCount)*float64(d.PatternCount)*float64(2*d.StateCount+2),
		float64(d.PartialsLen())*float64(e.elemSize()))
	site, wts, fr := e.site, e.CatWts, e.Freqs
	if err := e.perPattern(cost, func(lo, hi int) { kernels.SiteLikelihoods(site, root, wts, fr, d, lo, hi) }); err != nil {
		return nil, nil, err
	}
	e.transferred(len(site), 8)
	if scale != nil {
		e.transferred(len(scale), 8)
	}
	return site, scale, nil
}

// CalculateRootLogLikelihoods integrates the root partials into the total
// log likelihood.
func (e *Engine[T]) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	start, on := e.Cfg.Trace.Begin()
	site, scale, err := e.siteLikelihoods(rootBuf, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	lnL := kernels.RootLogLikelihood(site, e.PatWts, scale, 0, len(site))
	if on {
		e.Cfg.Trace.End(trace.Span{Kind: trace.KindRoot, Lane: int32(e.Cfg.TraceLane), Arg0: int64(len(site))}, start)
	}
	return lnL, nil
}

// SiteLogLikelihoods returns per-pattern root log likelihoods.
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

// CalculateEdgeDerivatives integrates across one branch on the device,
// returning the log likelihood and its branch-length derivatives.
func (e *Engine[T]) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
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
	parent, child, m, scale, err := e.EdgeOperands(parentBuf, childBuf, matrix, cumScaleBuf)
	if err != nil {
		return 0, 0, 0, err
	}
	if scale != nil {
		e.transferred(len(scale), 8)
	}
	d := e.Cfg.Dims
	siteL := make([]float64, d.PatternCount)
	siteD1 := make([]float64, d.PatternCount)
	var siteD2 []float64
	if m2 != nil {
		siteD2 = make([]float64, d.PatternCount)
	}
	start, on := e.Cfg.Trace.Begin()
	wts, fr := e.CatWts, e.Freqs
	cost := e.opCost()
	cost.Flops *= 2 // likelihood plus derivative accumulations
	if err := e.perPattern(cost, func(lo, hi int) {
		kernels.EdgeSiteDerivatives(siteL, siteD1, siteD2, parent, child, m, m1, m2, wts, fr, d, lo, hi)
	}); err != nil {
		return 0, 0, 0, err
	}
	lnL := kernels.RootLogLikelihood(siteL, e.PatWts, scale, 0, d.PatternCount)
	d1, d2 := kernels.ReduceEdgeDerivatives(siteL, siteD1, siteD2, e.PatWts, 0, d.PatternCount)
	if on {
		e.Cfg.Trace.End(trace.Span{Kind: trace.KindEdge, Lane: int32(e.Cfg.TraceLane), Arg0: int64(d.PatternCount)}, start)
	}
	return lnL, d1, d2, nil
}

// CalculateEdgeLogLikelihoods integrates across one branch on the device.
func (e *Engine[T]) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	parent, child, m, scale, err := e.EdgeOperands(parentBuf, childBuf, matrix, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	if scale != nil {
		e.transferred(len(scale), 8)
	}
	start, on := e.Cfg.Trace.Begin()
	d := e.Cfg.Dims
	site, wts, fr := e.site, e.CatWts, e.Freqs
	if err := e.perPattern(e.opCost(), func(lo, hi int) {
		kernels.EdgeSiteLikelihoods(site, parent, child, m, wts, fr, d, lo, hi)
	}); err != nil {
		return 0, err
	}
	e.transferred(len(site), 8)
	lnL := kernels.RootLogLikelihood(site, e.PatWts, scale, 0, d.PatternCount)
	if on {
		e.Cfg.Trace.End(trace.Span{Kind: trace.KindEdge, Lane: int32(e.Cfg.TraceLane), Arg0: int64(d.PatternCount)}, start)
	}
	return lnL, nil
}
