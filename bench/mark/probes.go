package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/multiimpl"
	"gobeagle/internal/remoteimpl"
	"gobeagle/internal/serve"
	"gobeagle/internal/tree"
)

// The layer probes time calls into each layer's exported functions on fixed
// shapes, from outside. They run in every traced run whatever workload was
// selected, so a per-layer number never depends on which workload the
// driver asked for. Each probe gets a share of the budget by weight, and
// every result a probe can check is checked.

// prober runs the probes and collects their values.
type prober struct {
	seed uint64
	tr   *tracer
	runs []*running // the selected workloads, reused when a probe needs theirs

	values map[string][]float64
	// batchSec keeps engine-level batch medians for the ratios taken
	// against them.
	batchSec          map[string]float64
	attempted, failed int
}

// probeShapes are the workload shapes the probes build problems of.
var (
	nucShape   = shape{16, 4, 20000, 4}
	codonShape = shape{16, 61, 1000, 1}
	deepShape  = shape{128, 4, 256, 4}
	distShape  = shape{24, 4, 4096, 4}
	// overheadShape keeps kernel work below 5 % of an operation: 127 ops
	// over 8 patterns, one category.
	overheadShape = shape{128, 4, 8, 1}
)

func (p *prober) set(name string, v float64) { p.values[name] = []float64{v} }

// check counts one verified result.
func (p *prober) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

// timeLoop calls fn (inner times per sample) for about d, at least three
// samples, and returns the per-call wall times in seconds.
func timeLoop(d time.Duration, inner int, fn func()) []float64 {
	var sec []float64
	start := time.Now()
	for len(sec) < 3 || time.Since(start) < d {
		t := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		sec = append(sec, time.Since(t).Seconds()/float64(inner))
	}
	return sec
}

// medianSeconds is the median of timeLoop over a call that can fail; the
// first error ends the probe.
func medianSeconds(d time.Duration, inner int, fn func() error) (float64, error) {
	var first error
	sec := median(timeLoop(d, inner, func() {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}))
	return sec, first
}

// probe is one step of the run: a name for its span, a weight, and a body.
type probe struct {
	name   string
	weight float64
	run    func(d time.Duration) error
}

func (p *prober) run(budget time.Duration) (map[string][]float64, error) {
	p.values = map[string][]float64{}
	p.batchSec = map[string]float64{}
	ln := p.tr.newLane("probes")
	probes := p.list()
	var total float64
	for _, pr := range probes {
		total += pr.weight
	}
	for _, pr := range probes {
		s := ln.begin("probe."+pr.name, -1)
		err := pr.run(time.Duration(pr.weight / total * float64(budget)))
		ln.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
	}
	for _, d := range perLayer {
		if _, ok := p.values[d.name]; !ok && !d.perWorkload {
			return nil, fmt.Errorf("probe for %s produced no value", d.name)
		}
	}
	return p.values, nil
}

func (p *prober) list() []probe {
	return []probe{
		{"kernels", 14, p.kernels},
		{"cpuimpl.nuc_large", 18, p.cpuNuc},
		{"cpuimpl.deep_small", 5, p.cpuDeep},
		{"cpuimpl.codon", 6, p.cpuCodon},
		{"cpuimpl.op_overhead", 4, p.cpuOverhead},
		{"engine", 3, p.engine},
		{"instance", 8, p.instance},
		{"reuse", 14, p.reuse},
		{"multiimpl+remoteimpl", 10, p.distributed},
		{"serve", 18, p.serve},
		{"accelimpl", 6, p.accel},
		{"tree+substmodel", 2, p.client},
	}
}

// problemFor generates the probe problem of a shape, on the same stream the
// workload of that shape uses, so probe and workload see the same inputs.
func (p *prober) problemFor(stream string, s shape) (*problem, error) {
	return newProblem(fixedTopology(s.tips), newRNG(p.seed, stream), s)
}

// ---- kernels ----

// fill returns n values in (0.1, 1.1) of the kernel's precision.
func fill[T kernels.Real](r *rng, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(0.1 + r.Float64())
	}
	return out
}

func states(r *rng, n, s int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.Intn(s))
	}
	return out
}

// kernelGFLOPS times one partials kernel over the whole pattern range on
// random buffers of the shape. which selects the operand kinds: "pp", "sp"
// or "ss".
func kernelGFLOPS[T kernels.Real](d time.Duration, r *rng, dims kernels.Dims, which string,
	pp func(dest, p1, m1, p2, m2 []T, d kernels.Dims, lo, hi int),
	sp func(dest []T, s1 []int32, m1, p2, m2 []T, d kernels.Dims, lo, hi int),
	ss func(dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d kernels.Dims, lo, hi int)) float64 {
	dest := make([]T, dims.PartialsLen())
	p1, p2 := fill[T](r, dims.PartialsLen()), fill[T](r, dims.PartialsLen())
	m1, m2 := fill[T](r, dims.MatrixLen()), fill[T](r, dims.MatrixLen())
	s1, s2 := states(r, dims.PatternCount, dims.StateCount), states(r, dims.PatternCount, dims.StateCount)
	n := dims.PatternCount
	var fn func()
	switch which {
	case "pp":
		fn = func() { pp(dest, p1, m1, p2, m2, dims, 0, n) }
	case "sp":
		fn = func() { sp(dest, s1, m1, p2, m2, dims, 0, n) }
	default:
		fn = func() { ss(dest, s1, m1, s2, m2, dims, 0, n) }
	}
	fn()
	sec := median(timeLoop(d, 1, fn))
	return evalFlops(1, dims.PatternCount, dims.CategoryCount, dims.StateCount) / sec / 1e9
}

func (p *prober) kernels(d time.Duration) error {
	r := newRNG(p.seed, "probe/kernels")
	each := d / 14
	d4, d20, d61 := nucShape.dims(), kernels.Dims{StateCount: 20, PatternCount: 2000, CategoryCount: 1}, codonShape.dims()
	p.set("kernels.pp_gflops.generic4_f32", kernelGFLOPS[float32](each, r, d4, "pp", kernels.PartialsPartials[float32], nil, nil))
	p.set("kernels.pp_gflops.unrolled4_f32", kernelGFLOPS[float32](each, r, d4, "pp", kernels.PartialsPartials4[float32], nil, nil))
	p.set("kernels.pp_gflops.generic4_f64", kernelGFLOPS[float64](each, r, d4, "pp", kernels.PartialsPartials[float64], nil, nil))
	p.set("kernels.pp_gflops.unrolled4_f64", kernelGFLOPS[float64](each, r, d4, "pp", kernels.PartialsPartials4[float64], nil, nil))
	p.set("kernels.pp_gflops.fma4_f64", kernelGFLOPS[float64](each, r, d4, "pp", kernels.PartialsPartialsFMA[float64], nil, nil))
	p.set("kernels.pp_gflops.generic20_f64", kernelGFLOPS[float64](each, r, d20, "pp", kernels.PartialsPartials[float64], nil, nil))
	p.set("kernels.pp_gflops.generic61_f64", kernelGFLOPS[float64](each, r, d61, "pp", kernels.PartialsPartials[float64], nil, nil))
	p.set("kernels.sp_gflops.generic4_f64", kernelGFLOPS[float64](each, r, d4, "sp", nil, kernels.StatesPartials[float64], nil))
	p.set("kernels.sp_gflops.unrolled4_f64", kernelGFLOPS[float64](each, r, d4, "sp", nil, kernels.StatesPartials4[float64], nil))
	p.set("kernels.sp_gflops.generic61_f64", kernelGFLOPS[float64](each, r, d61, "sp", nil, kernels.StatesPartials[float64], nil))
	p.set("kernels.ss_gflops.generic4_f64", kernelGFLOPS[float64](each, r, d4, "ss", nil, nil, kernels.StatesStates[float64]))

	for _, k := range []struct {
		tag  string
		dims kernels.Dims
	}{{"4x4cat", d4}, {"61x1cat", d61}} {
		s := k.dims.StateCount
		freqs := make([]float64, s)
		for i := range freqs {
			freqs[i] = 1 / float64(s)
		}
		vals, vecs, inv, err := modelEigen(s, 2, 0.5, freqs)
		if err != nil {
			return err
		}
		eig := &kernels.Eigen{StateCount: s, Values: vals, Vectors: vecs, InverseVectors: inv}
		rates := make([]float64, k.dims.CategoryCount)
		weights := make([]float64, k.dims.CategoryCount)
		for i := range rates {
			rates[i], weights[i] = 0.5+float64(i), 1/float64(len(rates))
		}
		out := make([]float64, k.dims.MatrixLen())
		sec := median(timeLoop(each/2, 4, func() { kernels.UpdateTransitionMatrix(out, eig, 0.1, rates) }))
		p.set("kernels.matrix_us."+k.tag, sec*1e6)

		root := fill[float64](r, k.dims.PartialsLen())
		site := make([]float64, k.dims.PatternCount)
		pw := make([]float64, k.dims.PatternCount)
		for i := range pw {
			pw[i] = 1
		}
		n := k.dims.PatternCount
		var sink float64
		sec = median(timeLoop(each/2, 1, func() {
			kernels.SiteLikelihoods(site, root, weights, freqs, k.dims, 0, n)
			sink += kernels.RootLogLikelihood(site, pw, nil, 0, n)
		}))
		p.set("kernels.root_ns_per_pattern."+k.tag, sec*1e9/float64(n))
	}
	dd := deepShape.dims()
	partials := fill[float64](r, dd.PartialsLen())
	scale := make([]float64, dd.PatternCount)
	sec := median(timeLoop(each/2, 16, func() { kernels.RescalePartials(partials, scale, dd, 0, dd.PatternCount) }))
	p.set("kernels.rescale_ns_per_pattern.4x4cat", sec*1e9/float64(dd.PatternCount))

	// Computed, not measured: flops of one partials-partials operation over
	// the bytes of its three partials arrays and two matrices.
	perByte := func(d kernels.Dims, size int) float64 {
		bytes := float64((3*d.PartialsLen() + 2*d.MatrixLen()) * size)
		return evalFlops(1, d.PatternCount, d.CategoryCount, d.StateCount) / bytes
	}
	p.set("kernels.flops_per_byte.4_f32", perByte(d4, 4))
	p.set("kernels.flops_per_byte.61_f64", perByte(d61, 8))
	return nil
}

// ---- cpuimpl ----

var modeNames = map[string]cpuimpl.Mode{
	"serial": cpuimpl.Serial, "sse": cpuimpl.SSE, "futures": cpuimpl.Futures,
	"threadcreate": cpuimpl.ThreadCreate, "threadpool": cpuimpl.ThreadPool, "hybrid": cpuimpl.ThreadPoolHybrid,
}

// loadedEngine builds a cpuimpl engine for the problem, loads it and runs
// one checked full evaluation.
func (p *prober) loadedEngine(pr *problem, mode cpuimpl.Mode, single, scaling bool, want, tol float64) (engine.Engine, error) {
	scaleBufs := 0
	if scaling {
		scaleBufs = pr.internalOps() + 1
	}
	eng, err := cpuimpl.New(engineConfig(pr, scaleBufs, single), mode)
	if err != nil {
		return nil, err
	}
	if err := pr.load(eng); err != nil {
		eng.Close()
		return nil, err
	}
	lnL, err := engineEval(eng, pr, pr.enginePlan(scaling))
	if err != nil {
		eng.Close()
		return nil, err
	}
	p.check(relErr(lnL, want) <= tol)
	return eng, nil
}

// batch times engine.UpdatePartials of the full peel in each mode and
// returns the median seconds per mode.
func (p *prober) batch(d time.Duration, pr *problem, modes []string, single, scaling bool, tol float64) (map[string]float64, error) {
	want, err := referenceLnL(pr, scaling)
	if err != nil {
		return nil, err
	}
	ops := pr.enginePlan(scaling).ops
	sec := map[string]float64{}
	for _, m := range modes {
		eng, err := p.loadedEngine(pr, modeNames[m], single, scaling, want, tol)
		if err != nil {
			return nil, err
		}
		sec[m], err = medianSeconds(d/time.Duration(len(modes)), 1, func() error { return eng.UpdatePartials(ops) })
		eng.Close()
		if err != nil {
			return nil, err
		}
	}
	return sec, nil
}

// batchGFLOPS runs batch on a workload's shape and records
// cpuimpl.batch_gflops.<workload>.<mode>; the medians are kept for the
// ratios other probes take against them.
func (p *prober) batchGFLOPS(d time.Duration, name string, s shape, modes []string, single, scaling bool, tol float64) error {
	pr, err := p.problemFor(name, s)
	if err != nil {
		return err
	}
	sec, err := p.batch(d, pr, modes, single, scaling, tol)
	if err != nil {
		return err
	}
	for m, t := range sec {
		p.batchSec[name+"."+m] = t
		p.set("cpuimpl.batch_gflops."+name+"."+m, pr.flops()/t/1e9)
	}
	if _, ok := sec["threadpool"]; ok && name != "deep_small" {
		p.set("cpuimpl.threadpool_speedup."+name, sec["serial"]/sec["threadpool"])
	}
	return nil
}

func (p *prober) cpuNuc(d time.Duration) error {
	modes := []string{"serial", "sse", "futures", "threadcreate", "threadpool", "hybrid"}
	return p.batchGFLOPS(d, "nuc_large", nucShape, modes, true, false, 1e-4)
}

func (p *prober) cpuDeep(d time.Duration) error {
	modes := []string{"serial", "sse", "futures", "threadpool", "hybrid"}
	return p.batchGFLOPS(d, "deep_small", deepShape, modes, false, true, 1e-9)
}

func (p *prober) cpuCodon(d time.Duration) error {
	return p.batchGFLOPS(d, "codon", codonShape, []string{"serial", "threadpool"}, false, false, 1e-9)
}

func (p *prober) cpuOverhead(d time.Duration) error {
	pr, err := p.problemFor("probe/overhead", overheadShape)
	if err != nil {
		return err
	}
	sec, err := p.batch(d, pr, []string{"serial", "futures", "threadpool", "hybrid"}, false, true, 1e-9)
	if err != nil {
		return err
	}
	for m, t := range sec {
		p.set("cpuimpl.op_overhead_us."+m, t*1e6/float64(pr.internalOps()))
	}
	return nil
}

// ---- engine ----

func (p *prober) engine(d time.Duration) error {
	each := d / 5
	for _, k := range []struct {
		tag string
		s   shape
	}{{"4x4cat", shape{16, 4, 16, 4}}, {"61x1cat", shape{16, 61, 16, 1}}} {
		pr, err := p.problemFor("probe/engine", k.s)
		if err != nil {
			return err
		}
		eng, err := cpuimpl.New(engineConfig(pr, 0, false), cpuimpl.Serial)
		if err != nil {
			return err
		}
		defer eng.Close()
		if err := pr.load(eng); err != nil {
			return err
		}
		sec, err := medianSeconds(each, 1, func() error { return eng.UpdateTransitionMatrices(0, pr.mats, pr.lens) })
		if err != nil {
			return err
		}
		p.set("engine.update_matrices_us_per_matrix."+k.tag, sec*1e6/float64(len(pr.mats)))
		if k.s.states == 61 {
			sec, err = medianSeconds(each, 1, func() error { return eng.SetEigenDecomposition(0, pr.eigVals, pr.eigVecs, pr.eigInv) })
			if err != nil {
				return err
			}
			p.set("engine.set_eigen_us.61", sec*1e6)
		}
	}

	nuc, err := p.problemFor("nuc_large", nucShape)
	if err != nil {
		return err
	}
	eng, err := cpuimpl.New(engineConfig(nuc, 0, true), cpuimpl.Serial)
	if err != nil {
		return err
	}
	defer eng.Close()
	sec, err := medianSeconds(each, 1, func() error { return eng.SetTipStates(0, nuc.tipStates[0]) })
	if err != nil {
		return err
	}
	p.set("engine.set_tip_states_us.nuc_large", sec*1e6)

	deep, err := p.problemFor("deep_small", deepShape)
	if err != nil {
		return err
	}
	want, err := referenceLnL(deep, true)
	if err != nil {
		return err
	}
	scaled, err := p.loadedEngine(deep, cpuimpl.Serial, false, true, want, 1e-9)
	if err != nil {
		return err
	}
	defer scaled.Close()
	bufs := make([]int, deep.internalOps())
	for i := range bufs {
		bufs[i] = i
	}
	sec, err = medianSeconds(each, 1, func() error { return scaled.AccumulateScaleFactors(bufs, len(bufs)) })
	p.set("engine.accumulate_scale_us.deep_small", sec*1e6)
	return err
}

// ---- instance ----

// instanceSeconds builds an instance with the flags, loads the problem,
// checks one evaluation, then returns the median time of fn(inst) and the
// median time of a full evaluation.
func (p *prober) instanceSeconds(d time.Duration, pr *problem, pl *evalPlan, flags gobeagle.Flags, want, tol float64) (partials, eval float64, err error) {
	inst, err := gobeagle.NewInstance(pr.config(flags, len(pl.scaleBufs)+1))
	if err != nil {
		return 0, 0, err
	}
	defer inst.Finalize()
	if err := pr.load(inst); err != nil {
		return 0, 0, err
	}
	lnL, err := evalInstance(inst, pl, nil, -1)
	if err != nil {
		return 0, 0, err
	}
	p.check(relErr(lnL, want) <= tol)
	if partials, err = medianSeconds(d/2, 1, func() error { return inst.UpdatePartials(pl.ops) }); err != nil {
		return 0, 0, err
	}
	eval, err = medianSeconds(d/2, 1, func() error {
		_, err := evalInstance(inst, pl, nil, -1)
		return err
	})
	return partials, eval, err
}

func (p *prober) instance(d time.Duration) error {
	nuc, err := p.problemFor("nuc_large", nucShape)
	if err != nil {
		return err
	}
	want, err := referenceLnL(nuc, false)
	if err != nil {
		return err
	}
	// Same mode as the nuc_large workload; the engine-level time is the
	// cpuimpl probe's.
	part, _, err := p.instanceSeconds(d*3/8, nuc, nuc.plan(), gobeagle.FlagPrecisionSingle|gobeagle.FlagThreadingThreadPool, want, 1e-4)
	if err != nil {
		return err
	}
	p.set("instance.api_overhead_ratio.nuc_large", part/p.batchSec["nuc_large.threadpool"])

	deep, err := p.problemFor("deep_small", deepShape)
	if err != nil {
		return err
	}
	if want, err = referenceLnL(deep, true); err != nil {
		return err
	}
	hybrid := gobeagle.FlagThreadingThreadPoolHybrid
	part, plain, err := p.instanceSeconds(d*2/8, deep, deep.scaledPlan(), hybrid, want, 1e-9)
	if err != nil {
		return err
	}
	p.set("instance.api_overhead_ratio.deep_small", part/p.batchSec["deep_small.hybrid"])
	_, tel, err := p.instanceSeconds(d*3/16, deep, deep.scaledPlan(), hybrid|gobeagle.FlagTelemetry, want, 1e-9)
	if err != nil {
		return err
	}
	_, trc, err := p.instanceSeconds(d*3/16, deep, deep.scaledPlan(), hybrid|gobeagle.FlagTrace, want, 1e-9)
	if err != nil {
		return err
	}
	p.set("instance.telemetry_on_ratio.deep_small", tel/plain)
	p.set("instance.trace_on_ratio.deep_small", trc/plain)
	return nil
}

// ---- reuse ----

// workloadOf returns the selected workload of that name, or prepares one.
func (p *prober) workloadOf(name string, dur time.Duration) (workload, error) {
	for _, r := range p.runs {
		if r.name == name {
			return r.w, nil
		}
	}
	w := findWorkload(name).make()
	if err := w.prepare(p.seed, dur); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *prober) reuse(d time.Duration) error {
	wl, err := p.workloadOf("mcmc_reuse", d)
	if err != nil {
		return err
	}
	w := wl.(*mcmcWorkload)
	var dirty []float64
	on, err := w.roundWith(d/3, nil, gobeagle.FlagReuse, chainFull, &dirty)
	if err != nil {
		return err
	}
	oracle, err := w.roundWith(d/3, nil, 0, chainOracle, nil)
	if err != nil {
		return err
	}
	full, err := w.roundWith(d/3, nil, 0, chainFull, nil)
	if err != nil {
		return err
	}
	for _, r := range []roundResult{on, oracle, full} {
		p.attempted += r.attempted
		p.failed += r.failed
	}
	p.set("reuse.op_skip_ratio", on.reuse.OpHitRate())
	p.set("reuse.matrix_skip_ratio", on.reuse.MatrixHitRate())
	p.set("reuse.move_us_p50", percentile(on.closed, 50)*1e3)
	p.set("reuse.move_us_p95", percentile(on.closed, 95)*1e3)
	p.set("reuse.dirty_all_move_us_p50", percentile(dirty, 50)*1e3)
	p.set("reuse.vs_oracle_ratio", percentile(on.closed, 50)/percentile(oracle.closed, 50))
	p.set("reuse.vs_full_ratio", percentile(on.closed, 50)/percentile(full.closed, 50))
	return nil
}

// ---- multiimpl / remoteimpl ----

// evalCountForCounters is the fixed number of evaluations the exact
// per-evaluation wire counts are taken over.
const evalCountForCounters = 8

func (p *prober) distributed(d time.Duration) error {
	pr, err := p.problemFor("dist_2worker", distShape)
	if err != nil {
		return err
	}
	want, err := referenceLnL(pr, false)
	if err != nil {
		return err
	}
	cfg := engineConfig(pr, 0, false)
	cfg.Threads = 1
	ep := pr.enginePlan(false)
	timeEval := func(eng engine.Engine, d time.Duration) (eval, root float64, err error) {
		var lnL float64
		eval, err = medianSeconds(d*3/4, 1, func() (err error) {
			lnL, err = engineEval(eng, pr, ep)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		p.check(lnL == want)
		root, err = medianSeconds(d/4, 1, func() error {
			_, err := eng.CalculateRootLogLikelihoods(pr.root, engine.None)
			return err
		})
		return eval, root, err
	}
	serial := func(sub engine.Config) (engine.Engine, error) { return cpuimpl.New(sub, cpuimpl.Serial) }

	single, err := serial(cfg)
	if err != nil {
		return err
	}
	if err := pr.load(single); err != nil {
		return err
	}
	t1, _, err := timeEval(single, d/4)
	single.Close()
	if err != nil {
		return err
	}

	local, err := multiimpl.New(cfg, []multiimpl.Builder{serial, serial}, []float64{1, 1})
	if err != nil {
		return err
	}
	if err := pr.load(local); err != nil {
		return err
	}
	t2, gather, err := timeEval(local, d/4)
	local.Close()
	if err != nil {
		return err
	}
	p.set("multiimpl.local2_vs_single_ratio", t2/t1)
	p.set("multiimpl.root_gather_us", gather*1e6)

	// Two workers behind loopback TCP; health pings off so that the RPC
	// count is the evaluations' alone.
	var remotes []*remoteimpl.Engine
	var builders []multiimpl.Builder
	for i := 0; i < 2; i++ {
		addr, stop, err := startWorker()
		if err != nil {
			return err
		}
		defer stop()
		builders = append(builders, func(sub engine.Config) (engine.Engine, error) {
			re, err := remoteimpl.New(sub, remoteimpl.Options{Addr: addr, HealthInterval: -1})
			if err == nil {
				remotes = append(remotes, re)
			}
			return re, err
		})
	}
	dist, err := multiimpl.New(cfg, builders, []float64{1, 1})
	if err != nil {
		return err
	}
	defer dist.Close()
	wire := func() (bytes, rpcs float64) {
		for _, re := range remotes {
			s := re.Stats()
			bytes += float64(s.BytesSent + s.BytesReceived)
			rpcs += float64(s.RPCs)
		}
		return
	}
	b0, _ := wire()
	t0 := time.Now()
	if err := pr.load(dist); err != nil {
		return err
	}
	p.set("remoteimpl.load_s", time.Since(t0).Seconds())
	b1, r1 := wire()
	p.set("remoteimpl.load_bytes", b1-b0)
	for i := 0; i < evalCountForCounters; i++ {
		lnL, err := engineEval(dist, pr, ep)
		if err != nil {
			return err
		}
		p.check(lnL == want)
	}
	b2, r2 := wire()
	p.set("remoteimpl.bytes_per_eval", (b2-b1)/evalCountForCounters)
	p.set("remoteimpl.rpcs_per_eval", (r2-r1)/evalCountForCounters)
	t3, _, err := timeEval(dist, d/4)
	if err != nil {
		return err
	}
	p.set("remoteimpl.dist2_vs_local2_ratio", t3/t2)
	sec, err := medianSeconds(d/8, 1, func() error {
		_, err := remotes[0].GetTransitionMatrix(pr.mats[0])
		return err
	})
	p.set("remoteimpl.small_rpc_us_p50", sec*1e6)
	var retries, redials, failovers float64
	for _, re := range remotes {
		s := re.Stats()
		retries += float64(s.Retries)
		redials += float64(s.Redials)
		failovers += float64(s.Failovers)
	}
	p.set("remoteimpl.retries", retries)
	p.set("remoteimpl.redials", redials)
	p.set("remoteimpl.failovers", failovers)
	return err
}

// ---- serve ----

func (p *prober) serve(d time.Duration) error {
	wl, err := p.workloadOf("serve_http", d)
	if err != nil {
		return err
	}
	w := wl.(*serveWorkload)
	res, det, err := w.roundDetail(d/2, nil)
	if err != nil {
		return err
	}
	p.attempted += res.attempted
	p.failed += res.failed

	var waits, batches, repeat, fresh []float64
	for k, i := range det.open.index {
		i = (det.openFrom + i) % len(w.pool)
		s := det.seen[i]
		waits = append(waits, float64(s.waitUs))
		batches = append(batches, float64(s.batch))
		if w.pool[i].repeat {
			repeat = append(repeat, det.open.latMs[k])
		} else {
			fresh = append(fresh, det.open.latMs[k])
		}
	}
	var hits, answered, rejected, errors5xx float64
	for _, s := range det.seen {
		switch {
		case s.status == 200:
			answered++
			if s.hit {
				hits++
			}
		case s.status == 429:
			rejected++
		case s.status >= 500:
			errors5xx++
		}
	}
	p.set("serve.queue_wait_us_p50", percentile(waits, 50))
	p.set("serve.batch_size_mean", mean(batches))
	p.set("serve.pool_hit_ratio", hits/answered)
	p.set("serve.req_ms_p50.repeat", percentile(repeat, 50))
	p.set("serve.req_ms_p50.fresh", percentile(fresh, 50))
	p.set("serve.req_ms_p99", percentile(det.open.latMs, 99))
	p.set("serve.gen_late_ms_p95", percentile(det.open.lateMs, 95))
	p.set("serve.rejected_429", rejected)
	p.set("serve.errors_5xx", errors5xx)
	p.set("serve.cold_first_request_ms", det.firstMs)

	// The same requests through each boundary in turn: a dedicated instance,
	// Server.Evaluate in process, HTTP on one connection.
	n := len(w.pool)
	direct, err := newDirectEvaluator(serveShape)
	if err != nil {
		return err
	}
	defer direct.inst.Finalize()
	directMs := p.boundaryP50(d/12, func(i int) bool {
		sr := &w.pool[i%n]
		lnL, err := direct.eval(sr.p, nil, -1)
		return err == nil && relErr(lnL, sr.want) <= 1e-9
	})

	srv := serve.NewServer(serve.DefaultOptions())
	inprocMs := p.boundaryP50(d/6, func(i int) bool {
		sr := &w.pool[i%n]
		out, _, err := srv.Evaluate(context.Background(), sr.req)
		return err == nil && relErr(out.LogLikelihood, sr.want) <= 1e-9
	})
	srv.Close()

	s, err := w.start()
	if err != nil {
		return err
	}
	p.check(s.post(0, nil))
	httpMs := p.boundaryP50(d/6, func(i int) bool { return s.post(i%n, nil) })
	s.stop()
	for name, v := range serveOverheads(directMs, inprocMs, httpMs) {
		p.set(name, v)
	}
	return nil
}

// boundaryP50 is the median wall time, in ms, of call: one caller, closed
// loop, for about d. Every boundary of the serve probe is timed here and
// nowhere else, so their differences and ratios compare like with like.
func (p *prober) boundaryP50(d time.Duration, call func(i int) bool) float64 {
	res := closedLoop(math.MaxInt32, 1, d, func(_, i int) bool { return call(i) })
	p.attempted += res.attempted
	p.failed += res.failed
	return percentile(res.latMs, 50)
}

// serveOverheads derives the boundary metrics from the three medians (ms):
// what HTTP adds to the in-process call, and the whole served path over a
// dedicated instance.
func serveOverheads(directMs, inprocMs, httpMs float64) map[string]float64 {
	return map[string]float64{
		"serve.direct_eval_ms_p50":   directMs,
		"serve.inproc_ms_p50":        inprocMs,
		"serve.http_overhead_ms_p50": httpMs - inprocMs,
		"serve.overhead_ratio":       httpMs / directMs,
	}
}

// ---- accelimpl ----

func (p *prober) accel(d time.Duration) error {
	pr, err := p.problemFor("nuc_large", nucShape)
	if err != nil {
		return err
	}
	want, err := referenceLnL(pr, false)
	if err != nil {
		return err
	}
	for _, dev := range []struct{ tag, name, framework string }{
		{"cuda_p5000", "Quadro P5000", "CUDA"},
		{"opencl_x86", "Xeon E5-2680v4 x2", "OpenCL"},
	} {
		rsc, err := gobeagle.FindResource(dev.name, dev.framework)
		if err != nil {
			return err
		}
		cfg := pr.config(gobeagle.FlagPrecisionSingle, 0)
		cfg.ResourceID = rsc.ID
		inst, err := gobeagle.NewInstance(cfg)
		if err != nil {
			return err
		}
		if err := pr.load(inst); err != nil {
			return err
		}
		pl := pr.plan()
		lnL, err := evalInstance(inst, pl, nil, -1)
		if err != nil {
			return err
		}
		p.check(relErr(lnL, want) <= 1e-4)
		q := inst.DeviceQueue()
		var modeled []float64
		host, err := medianSeconds(d/2, 1, func() error {
			q.ResetTimers()
			_, err := evalInstance(inst, pl, nil, -1)
			modeled = append(modeled, q.ModeledTime().Seconds())
			return err
		})
		inst.Finalize()
		if err != nil {
			return err
		}
		p.set("accelimpl.host_gflops."+dev.tag+".nuc_large", pr.flops()/host/1e9)
		p.set("accelimpl.modeled_gflops."+dev.tag+".nuc_large", pr.flops()/median(modeled)/1e9)
	}
	return nil
}

// ---- tree / substmodel ----

func (p *prober) client(d time.Duration) error {
	pr, err := p.problemFor("probe/client", serveShape)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		inner int
		fn    func() error
	}{
		{"tree.parse_newick_us.16tips", 4, func() error { _, err := tree.ParseNewick(pr.newick); return err }},
		{"substmodel.eigen_us.4", 4, func() error { _, _, _, err := modelEigen(4, pr.kappa, pr.omega, pr.freqs); return err }},
		{"substmodel.eigen_us.61", 1, func() error { _, _, _, err := modelEigen(61, 2, 0.5, nil); return err }},
	} {
		sec, err := medianSeconds(d/3, c.inner, c.fn)
		if err != nil {
			return err
		}
		p.set(c.name, sec*1e6)
	}
	return nil
}
