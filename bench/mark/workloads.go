package main

import (
	"context"
	"net"
	"runtime"
	"time"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
	"gobeagle/internal/remoteimpl"
	"gobeagle/internal/trace"
)

// threads is the thread and connection count every workload uses:
// min(nproc, 4), so a result names its parallelism instead of inheriting the
// host's.
func threads() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// heapAfterGC is the live heap after a forced collection, in bytes.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// roundResult is what one round of one workload measured, raw wall clock
// throughout. closed holds the closed-loop per-operation times; open holds
// the open-loop latencies of a workload that has such a phase, which the
// latency percentiles are then taken from (see latencies).
type roundResult struct {
	setupS     float64
	setupRefS  float64 // setupS at the reference machine speed; 0 when not normalised
	residentMB float64
	open       []float64 // ms
	closed     []float64 // ms
	ops        int       // correct operations completed in the closed-loop phase
	wallS      float64   // closed-loop phase length
	// scaled is closed at the reference machine speed and calibMs the
	// round's median burst time (calib.go); nil and 0 on serve_http, which
	// is not normalised.
	scaled    []float64
	calibMs   float64
	attempted int
	failed    int
	// reuse is the instance's reuse counters over the first block of moves
	// (mcmc_reuse only): a fixed stretch, so the ratios repeat exactly.
	reuse gobeagle.ReuseStats
	// layer holds the per-layer metrics this workload itself yields
	// (harness spans and counters around its own calls); traced rounds only.
	layer map[string]float64
}

// atReferenceSpeed returns the round as the end-to-end metrics read it: the
// operation times scaled by the bursts around them, the closed-loop phase's
// length as their sum, which leaves the bursts out, and set-up scaled by the
// burst that followed it. A round without bursts is returned as it is.
func (r roundResult) atReferenceSpeed() roundResult {
	if r.scaled == nil {
		return r
	}
	r.setupS = r.setupRefS
	r.closed = r.scaled
	r.wallS = 0
	for _, t := range r.scaled {
		r.wallS += t / 1e3
	}
	return r
}

// setupsPerRound is how many times a round sets up — constructor call to
// first correct result — before it measures on the last instance. Set-up is
// a single reading of a few milliseconds, far noisier than a median over
// hundreds of operations; three per round make the run's value the median
// of 21.
const setupsPerRound = 3

// timedSetups times setup setupsPerRound times, stopping all but the last
// instance, and fills the round's set-up time (the median), its first
// checked results, and the memory the last instance holds. On a normalised
// workload each set-up is followed by one burst of the workload's shape and
// also kept scaled by it. It returns the last instance's stop function.
func (r *roundResult) timedSetups(shape burstShape, setup func() (ok bool, stop func(), err error)) (func(), error) {
	var times, scaled []float64
	// Earlier instances are garbage by the time the last one is measured,
	// so the heap before the first set-up is the baseline.
	before := heapAfterGC()
	for i := 0; ; i++ {
		t0 := time.Now()
		ok, stop, err := setup()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if shape.width > 0 {
			scaled = append(scaled, times[i]*calibRefMs/shape.burst())
			r.setupRefS = median(scaled)
		}
		r.attempted++
		if !ok {
			r.failed++
		}
		if i == setupsPerRound-1 {
			r.setupS = median(times)
			r.residentMB = (heapAfterGC() - before) / 1e6
			return stop, nil
		}
		stop()
	}
}

// latencies are the samples the latency percentiles are taken from: the
// open-loop phase's if the workload has one, else the closed loop's.
func (r roundResult) latencies() []float64 {
	if r.open != nil {
		return r.open
	}
	return r.closed
}

// workload is one named set of inputs with its way of driving the product.
type workload interface {
	// prepare generates the inputs and reference results from the seed;
	// roundDur lets it size request pools. Untimed.
	prepare(seed uint64, roundDur time.Duration) error
	// round builds a fresh instance or server, checks its first result,
	// then measures for about dur. ln is nil on untraced rounds.
	round(dur time.Duration, ln *lane) (roundResult, error)
	// flops is the effective operation count one operation requests.
	flops() float64
	// pinned is the workload's entry for expected.json: input digest and
	// reference values.
	pinned() pinnedEntry
}

// pinnedEntry is one workload's record in expected.json.
type pinnedEntry struct {
	Digest string    `json:"digest"`
	Values []float64 `json:"values"`
}

// evalSpec defines a full-evaluation workload.
type evalSpec struct {
	shape
	flags       gobeagle.Flags
	scaling     bool // per-operation rescaling, cumulative buffer at the root
	distributed bool // two in-process workers behind loopback TCP
	tol         float64
	// burst shapes the calibration bursts like the workload's own
	// computation; the zero value leaves the workload's timings raw (calib.go
	// says which workloads and why).
	burst burstShape
}

// evalWorkload repeats one full evaluation (all transition matrices, the
// full peel, the root integration) on a fresh instance per round.
type evalWorkload struct {
	name string
	spec evalSpec
	p    *problem
	plan *evalPlan
	ref  float64 // serial double-precision cpuimpl result
}

func (w *evalWorkload) flops() float64 { return w.p.flops() }

func (w *evalWorkload) pinned() pinnedEntry {
	return pinnedEntry{Digest: w.p.digest(), Values: []float64{w.ref}}
}

func (w *evalWorkload) prepare(seed uint64, _ time.Duration) error {
	p, err := newProblem(fixedTopology(w.spec.tips), newRNG(seed, w.name), w.spec.shape)
	if err != nil {
		return err
	}
	w.p = p
	w.plan = p.plan()
	if w.spec.scaling {
		w.plan = p.scaledPlan()
	}
	w.ref, err = referenceLnL(p, w.spec.scaling)
	return err
}

// referenceLnL evaluates the problem on a serial double-precision cpuimpl
// engine — the in-process reference every timed result is compared with.
func referenceLnL(p *problem, scaling bool) (float64, error) {
	scaleBufs := 0
	if scaling {
		scaleBufs = p.internalOps() + 1
	}
	cfg := engineConfig(p, scaleBufs, false)
	eng, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if err := p.load(eng); err != nil {
		return 0, err
	}
	return engineEval(eng, p, p.enginePlan(scaling))
}

// engineConfig is the engine-level geometry of a problem.
func engineConfig(p *problem, scaleBuffers int, single bool) engine.Config {
	c := p.config(0, scaleBuffers)
	return engine.Config{
		TipCount: c.TipCount, PartialsBuffers: c.PartialsBuffers, MatrixBuffers: c.MatrixBuffers,
		EigenBuffers: c.EigenBuffers, ScaleBuffers: c.ScaleBuffers,
		Dims:            p.dims(),
		SinglePrecision: single,
		Threads:         c.Threads,
	}
}

// enginePlan is a problem's full evaluation in engine-level operations, for
// the reference and the probes that drive engines directly.
type enginePlan struct {
	ops       []engine.Operation
	scaleBufs []int
	cumBuf    int // engine.None without rescaling
}

// enginePlan converts the problem's schedule; with scaling, operation i
// rescales into scale buffer i and the root integrates their sum.
func (p *problem) enginePlan(scaling bool) *enginePlan {
	ep := &enginePlan{ops: make([]engine.Operation, len(p.ops)), cumBuf: engine.None}
	for i, op := range p.ops {
		w := engine.None
		if scaling {
			w = i
			ep.scaleBufs = append(ep.scaleBufs, i)
		}
		ep.ops[i] = engine.Operation{Dest: op.Destination, DestScaleWrite: w, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Matrix, Child2: op.Child2, Child2Mat: op.Child2Matrix}
	}
	if scaling {
		ep.cumBuf = len(p.ops)
	}
	return ep
}

// engineEval runs one full evaluation directly on an engine.
func engineEval(eng engine.Engine, p *problem, ep *enginePlan) (float64, error) {
	if err := eng.UpdateTransitionMatrices(0, p.mats, p.lens); err != nil {
		return 0, err
	}
	if err := eng.UpdatePartials(ep.ops); err != nil {
		return 0, err
	}
	if ep.cumBuf != engine.None {
		if err := eng.ResetScaleFactors(ep.cumBuf); err != nil {
			return 0, err
		}
		if err := eng.AccumulateScaleFactors(ep.scaleBufs, ep.cumBuf); err != nil {
			return 0, err
		}
	}
	return eng.CalculateRootLogLikelihoods(p.root, ep.cumBuf)
}

// Span names: one per call the harness makes into the Instance layer, under
// one "eval" span per operation.
const (
	spanEval     = "eval"
	spanMatrices = "instance.UpdateTransitionMatrices"
	spanPartials = "instance.UpdatePartials"
	spanScale    = "instance.AccumulateScaleFactors"
	spanRoot     = "instance.CalculateRootLogLikelihoods"
)

// evalPlan is one full evaluation in library buffer indices.
type evalPlan struct {
	mats      []int
	lens      []float64
	ops       []gobeagle.Operation
	scaleBufs []int // scale buffers the operations write, accumulated into cumBuf
	cumBuf    int   // gobeagle.None without rescaling
	root      int
}

// plan is the problem's full evaluation without rescaling.
func (p *problem) plan() *evalPlan {
	return &evalPlan{mats: p.mats, lens: p.lens, ops: p.ops, cumBuf: gobeagle.None, root: p.root}
}

// scaledPlan rescales every operation into its own scale buffer and
// integrates the root with their accumulated sum.
func (p *problem) scaledPlan() *evalPlan {
	pl := p.plan()
	pl.ops = toOperations(p.tr.FullSchedule().Ops, true)
	for i := range pl.ops {
		pl.scaleBufs = append(pl.scaleBufs, i)
	}
	pl.cumBuf = len(pl.ops)
	return pl
}

// evalInstance is one full evaluation through the public API: every
// transition matrix, the full peel, (scale accumulation,) the root.
func evalInstance(inst *gobeagle.Instance, pl *evalPlan, ln *lane, op int64) (float64, error) {
	e := ln.begin(spanEval, op)
	defer ln.end(e)
	s := ln.begin(spanMatrices, op)
	err := inst.UpdateTransitionMatrices(0, pl.mats, pl.lens)
	ln.end(s)
	if err != nil {
		return 0, err
	}
	s = ln.begin(spanPartials, op)
	err = inst.UpdatePartials(pl.ops)
	ln.end(s)
	if err != nil {
		return 0, err
	}
	if pl.cumBuf != gobeagle.None {
		s = ln.begin(spanScale, op)
		err = inst.ResetScaleFactors(pl.cumBuf)
		if err == nil {
			err = inst.AccumulateScaleFactors(pl.scaleBufs, pl.cumBuf)
		}
		ln.end(s)
		if err != nil {
			return 0, err
		}
	}
	s = ln.begin(spanRoot, op)
	lnL, err := inst.CalculateRootLogLikelihoods(pl.root, pl.cumBuf)
	ln.end(s)
	return lnL, err
}

// startWorker boots one in-process remoteimpl worker hosting serial engines
// on a real loopback socket; stop cancels it and waits for it to end.
func startWorker() (addr string, stop func(), err error) {
	worker, err := remoteimpl.NewWorker(remoteimpl.WorkerOptions{
		Builder: func(g remoteimpl.Geometry, tr *trace.Tracer) (engine.Engine, error) {
			cfg := g.Config()
			cfg.Trace = tr
			return cpuimpl.New(cfg, cpuimpl.Serial)
		},
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = worker.Serve(ctx, ln) // the listener closing at cancel is the expected end
	}()
	return ln.Addr().String(), func() { cancel(); <-done }, nil
}

// build creates the workload's instance (and, distributed, its two workers);
// stop finalizes everything it started.
func (w *evalWorkload) build() (inst *gobeagle.Instance, stop func(), err error) {
	cfg := w.p.config(w.spec.flags, len(w.plan.scaleBufs)+1)
	if !w.spec.distributed {
		inst, err = gobeagle.NewInstance(cfg)
		if err != nil {
			return nil, nil, err
		}
		return inst, func() { inst.Finalize() }, nil
	}
	var addrs []string
	var stops []func()
	stopAll := func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < 2; i++ {
		addr, s, err := startWorker()
		if err != nil {
			stopAll()
			return nil, nil, err
		}
		addrs = append(addrs, addr)
		stops = append(stops, s)
	}
	inst, err = gobeagle.NewDistributedInstance(cfg, addrs, nil, []float64{1, 1})
	if err != nil {
		stopAll()
		return nil, nil, err
	}
	return inst, func() { inst.Finalize(); stopAll() }, nil
}

// correct reports whether a result agrees with the reference: bit-identical
// for the distributed engine (its documented guarantee), within the
// precision's tolerance otherwise.
func (w *evalWorkload) correct(lnL float64) bool {
	if w.spec.distributed {
		return lnL == w.ref
	}
	return relErr(lnL, w.ref) <= w.spec.tol
}

func (w *evalWorkload) round(dur time.Duration, ln *lane) (roundResult, error) {
	var r roundResult
	var inst *gobeagle.Instance
	stop, err := r.timedSetups(w.spec.burst, func() (bool, func(), error) {
		in, stop, err := w.build()
		if err != nil {
			return false, nil, err
		}
		if err := w.p.load(in); err != nil {
			stop()
			return false, nil, err
		}
		// The first evaluation both ends set-up (first correct result)
		// and is the untimed warm evaluation.
		lnL, err := evalInstance(in, w.plan, nil, -1)
		if err != nil {
			stop()
			return false, nil, err
		}
		inst = in
		return w.correct(lnL), stop, nil
	})
	if err != nil {
		return r, err
	}
	defer stop()

	from := ln.mark()
	cal := newCalibrator(w.spec.burst)
	start := time.Now()
	for op := int64(0); time.Since(start) < dur || len(r.closed) < minOpsPerRound; op++ {
		t := time.Now()
		lnL, err := evalInstance(inst, w.plan, ln, op)
		r.closed = append(r.closed, float64(time.Since(t))/1e6)
		cal.opDone()
		r.attempted++
		if err != nil || !w.correct(lnL) {
			r.failed++
			continue
		}
		r.ops++
	}
	r.wallS = time.Since(start).Seconds()
	r.scaled, r.calibMs = cal.normalise(r.closed), cal.ms()
	if ln != nil {
		allocs := allocsPerCall(allocSampleEvals, func() { evalInstance(inst, w.plan, nil, -1) })
		r.layer = instanceLayer(ln, from, allocs)
	}
	return r, nil
}

// allocSampleEvals is the fixed number of evaluations the allocation count
// per evaluation is taken over, with nothing else running in between.
const allocSampleEvals = 16

// allocsPerCall is the heap allocation count of one call of fn, averaged
// over n calls.
func allocsPerCall(n int, fn func()) float64 {
	m0 := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(mallocs()-m0) / float64(n)
}

// minOpsPerRound keeps a round meaningful when --seconds is tiny.
const minOpsPerRound = 5

// instanceLayer derives the Instance-layer metrics of a traced round from
// the harness spans: each call's share of the evaluation and the median
// evaluation time, plus the allocation count per evaluation.
func instanceLayer(ln *lane, from int, allocsPerEval float64) map[string]float64 {
	total := ln.spanTotals(from)
	var evals []float64
	for _, s := range ln.spans[from:] {
		if s.name == spanEval {
			evals = append(evals, float64(s.end-s.start)/1e6)
		}
	}
	all := total[spanEval]
	return map[string]float64{
		"instance.matrices_share":  total[spanMatrices] / all,
		"instance.partials_share":  total[spanPartials] / all,
		"instance.root_share":      (total[spanRoot] + total[spanScale]) / all,
		"instance.eval_ms_p50":     percentile(evals, 50),
		"instance.allocs_per_eval": allocsPerEval,
	}
}
