package main

import "gobeagle"

// This file is the benchmark's definition: workloads, end-to-end metrics
// with their bounds, and per-layer metrics with the end-to-end metric and
// workloads each is predicted to move. BENCHMARK.json is rendered from it
// (-describe) and a test keeps the two equal.

// workloadDef names a workload, says why it exists, and builds it.
type workloadDef struct {
	name string
	why  string
	make func() workload
}

var workloadDefs = []workloadDef{
	{"nuc_large", "16 tips x 20000 patterns, 4 states, single precision, thread pool: long streaming ops, so the 4-state kernels and pattern chunking are nearly all of it",
		func() workload {
			return &evalWorkload{name: "nuc_large", spec: evalSpec{shape: shape{16, 4, 20000, 4},
				flags: gobeagle.FlagPrecisionSingle | gobeagle.FlagThreadingThreadPool, tol: 1e-4, burst: burstShape{threads(), 1}}}
		}},
	{"codon", "16 tips x 1000 patterns, 61 states, double: the wide-state generic kernel and 61^3 transition-matrix construction; 4-state code does nothing here",
		func() workload {
			return &evalWorkload{name: "codon", spec: evalSpec{shape: shape{16, 61, 1000, 1},
				flags: gobeagle.FlagThreadingThreadPool, tol: 1e-9}}
		}},
	{"deep_small", "128 tips x 256 patterns with rescaling, hybrid scheduler: 127 short ops, so validation, level scheduling, pool hand-off and scale kernels matter and bandwidth does not",
		func() workload {
			return &evalWorkload{name: "deep_small", spec: evalSpec{shape: shape{128, 4, 256, 4},
				flags: gobeagle.FlagThreadingThreadPoolHybrid, scaling: true, tol: 1e-9, burst: burstShape{threads(), 0.3}}}
		}},
	{"mcmc_reuse", "64 tips x 1024 patterns, FlagReuse, seeded proposals resubmitting the full schedule: the reuse filter and matrix cache do the work, kernels touch only the dirty path",
		func() workload { return &mcmcWorkload{shape: shape{64, 4, 1024, 4}} }},
	{"serve_http", "POST /v1/evaluate of 16 tips x 128 sites, 75% repeated problems: JSON, HTTP, compile, pool and the batch window dominate, kernel work is tens of microseconds",
		func() workload { return &serveWorkload{} }},
	{"dist_2worker", "24 tips x 4096 patterns sharded over two loopback workers: wire framing and the multi-engine barrier and root gather are the only difference from a local engine",
		func() workload {
			return &evalWorkload{name: "dist_2worker", spec: evalSpec{shape: shape{24, 4, 4096, 4},
				distributed: true, burst: burstShape{2, 1}}}
		}},
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		out[i] = d.name
	}
	return out
}

// metricDef describes one metric. Kind says where the number comes from:
// "measured" (wall clock or a counter read in this run), "computed" (from
// array sizes, no clock) or "modeled" (the device performance model's
// output). A record marks a measured timing that was scaled to the reference
// machine speed (calib.go) "normalised" and keeps the raw rounds beside it. moves/on record the prediction for per-layer metrics: which
// end-to-end metric it should move, on which workloads.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	kind   string
	moves  string
	on     []string
	// exact marks counts that must repeat exactly for equal seeds.
	exact bool
	// perWorkload marks per-layer metrics measured on the workload being
	// run; the others come from fixed-shape probes.
	perWorkload bool
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; an "operation" is one full evaluation (nuc_large,
// codon, deep_small, dist_2worker), one proposal (mcmc_reuse) or one request
// (serve_http). Bounds are the share of the parent's median by which a
// metric may worsen.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, kind: "measured"},
	{name: "eval_gflops", unit: "GFLOPS", better: "higher", bound: 0.25, kind: "measured"},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, kind: "measured"},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25, kind: "measured"},
	{name: "resident_mb", unit: "MB", better: "lower", bound: 0.05, kind: "measured"},
}

const kindNormalised = "normalised"

// runSeconds is how long the driver lets one run measure (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 16

var (
	nuc4   = []string{"nuc_large", "deep_small", "dist_2worker"}
	short  = []string{"deep_small", "mcmc_reuse"}
	allW   = workloadNames()
	codonW = []string{"codon"}
	nucW   = []string{"nuc_large"}
	deepW  = []string{"deep_small"}
	mcmcW  = []string{"mcmc_reuse"}
	serveW = []string{"serve_http"}
	distW  = []string{"dist_2worker"}
)

// layerMetrics builds the per-layer list. Names are layer.metric[.variant];
// layers are the repository's module names.
func layerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit, better, kind, moves string, on []string) {
		out = append(out, metricDef{name: name, unit: unit, better: better, kind: kind, moves: moves, on: on})
	}
	gf := func(name string, on []string) { add(name, "GFLOPS", "higher", "measured", "eval_gflops", on) }
	last := func() *metricDef { return &out[len(out)-1] }

	// kernels: direct single-goroutine calls.
	for _, v := range []string{"generic4_f32", "unrolled4_f32", "generic4_f64", "unrolled4_f64", "fma4_f64"} {
		gf("kernels.pp_gflops."+v, nuc4)
	}
	gf("kernels.pp_gflops.generic20_f64", codonW)
	gf("kernels.pp_gflops.generic61_f64", codonW)
	gf("kernels.sp_gflops.generic4_f64", nuc4)
	gf("kernels.sp_gflops.unrolled4_f64", nuc4)
	gf("kernels.sp_gflops.generic61_f64", codonW)
	gf("kernels.ss_gflops.generic4_f64", nuc4)
	add("kernels.matrix_us.4x4cat", "us", "lower", "measured", "ops_per_s", []string{"mcmc_reuse", "serve_http"})
	add("kernels.matrix_us.61x1cat", "us", "lower", "measured", "eval_gflops", codonW)
	add("kernels.root_ns_per_pattern.4x4cat", "ns", "lower", "measured", "eval_gflops", nuc4)
	add("kernels.root_ns_per_pattern.61x1cat", "ns", "lower", "measured", "eval_gflops", codonW)
	add("kernels.rescale_ns_per_pattern.4x4cat", "ns", "lower", "measured", "eval_gflops", deepW)
	add("kernels.flops_per_byte.4_f32", "flop/B", "higher", "computed", "eval_gflops", nucW)
	add("kernels.flops_per_byte.61_f64", "flop/B", "higher", "computed", "eval_gflops", codonW)

	// cpuimpl: engine.UpdatePartials per strategy.
	for _, m := range []string{"serial", "sse", "futures", "threadcreate", "threadpool", "hybrid"} {
		gf("cpuimpl.batch_gflops.nuc_large."+m, nucW)
	}
	for _, m := range []string{"serial", "sse", "futures", "threadpool", "hybrid"} {
		gf("cpuimpl.batch_gflops.deep_small."+m, deepW)
	}
	gf("cpuimpl.batch_gflops.codon.serial", codonW)
	gf("cpuimpl.batch_gflops.codon.threadpool", codonW)
	for _, m := range []string{"serial", "futures", "threadpool", "hybrid"} {
		add("cpuimpl.op_overhead_us."+m, "us", "lower", "measured", "eval_gflops", short)
	}
	add("cpuimpl.threadpool_speedup.nuc_large", "ratio", "higher", "measured", "eval_gflops", nucW)
	add("cpuimpl.threadpool_speedup.codon", "ratio", "higher", "measured", "eval_gflops", codonW)

	// engine: shared storage layer.
	add("engine.update_matrices_us_per_matrix.4x4cat", "us", "lower", "measured", "ops_per_s", []string{"mcmc_reuse", "serve_http"})
	add("engine.update_matrices_us_per_matrix.61x1cat", "us", "lower", "measured", "eval_gflops", codonW)
	add("engine.set_tip_states_us.nuc_large", "us", "lower", "measured", "setup_s", nucW)
	add("engine.set_eigen_us.61", "us", "lower", "measured", "setup_s", codonW)
	add("engine.accumulate_scale_us.deep_small", "us", "lower", "measured", "eval_gflops", deepW)

	// instance (package gobeagle): harness spans around the calls of the
	// workload being run, on the workload's own problem.
	add("instance.matrices_share", "ratio", "lower", "measured", "eval_gflops", allW)
	last().perWorkload = true
	add("instance.partials_share", "ratio", "lower", "measured", "eval_gflops", allW)
	last().perWorkload = true
	add("instance.root_share", "ratio", "lower", "measured", "eval_gflops", allW)
	last().perWorkload = true
	add("instance.eval_ms_p50", "ms", "lower", "measured", "op_ms_p50", allW)
	last().perWorkload = true
	add("instance.allocs_per_eval", "count", "lower", "measured", "ops_per_s", allW)
	last().perWorkload = true
	add("instance.api_overhead_ratio.nuc_large", "ratio", "lower", "measured", "eval_gflops", nucW)
	add("instance.api_overhead_ratio.deep_small", "ratio", "lower", "measured", "eval_gflops", short)
	add("instance.telemetry_on_ratio.deep_small", "ratio", "lower", "measured", "op_ms_p50", serveW)
	add("instance.trace_on_ratio.deep_small", "ratio", "lower", "measured", "op_ms_p50", serveW)

	// reuse: the mcmc_reuse stream under the flag, the oracle and no reuse.
	add("reuse.op_skip_ratio", "ratio", "higher", "measured", "ops_per_s", mcmcW)
	last().exact = true
	add("reuse.matrix_skip_ratio", "ratio", "higher", "measured", "ops_per_s", mcmcW)
	last().exact = true
	add("reuse.move_us_p50", "us", "lower", "measured", "ops_per_s", mcmcW)
	add("reuse.move_us_p95", "us", "lower", "measured", "ops_per_s", mcmcW)
	add("reuse.dirty_all_move_us_p50", "us", "lower", "measured", "ops_per_s", mcmcW)
	add("reuse.vs_oracle_ratio", "ratio", "lower", "measured", "ops_per_s", mcmcW)
	add("reuse.vs_full_ratio", "ratio", "lower", "measured", "ops_per_s", mcmcW)

	// multiimpl / remoteimpl: the dist_2worker shape.
	add("multiimpl.local2_vs_single_ratio", "ratio", "lower", "measured", "eval_gflops", distW)
	add("multiimpl.root_gather_us", "us", "lower", "measured", "eval_gflops", distW)
	add("remoteimpl.bytes_per_eval", "B", "lower", "measured", "eval_gflops", distW)
	last().exact = true
	add("remoteimpl.rpcs_per_eval", "count", "lower", "measured", "eval_gflops", distW)
	last().exact = true
	add("remoteimpl.dist2_vs_local2_ratio", "ratio", "lower", "measured", "eval_gflops", distW)
	add("remoteimpl.small_rpc_us_p50", "us", "lower", "measured", "eval_gflops", distW)
	add("remoteimpl.load_bytes", "B", "lower", "measured", "setup_s", distW)
	add("remoteimpl.load_s", "s", "lower", "measured", "setup_s", distW)
	add("remoteimpl.retries", "count", "lower", "measured", "ops_per_s", distW)
	add("remoteimpl.redials", "count", "lower", "measured", "ops_per_s", distW)
	add("remoteimpl.failovers", "count", "lower", "measured", "ops_per_s", distW)

	// serve: the serve_http request pool through each boundary in turn.
	sv := func(name, unit, better, moves string) { add(name, unit, better, "measured", moves, serveW) }
	sv("serve.inproc_ms_p50", "ms", "lower", "op_ms_p50")
	sv("serve.http_overhead_ms_p50", "ms", "lower", "op_ms_p50")
	sv("serve.direct_eval_ms_p50", "ms", "lower", "op_ms_p50")
	sv("serve.overhead_ratio", "ratio", "lower", "op_ms_p50")
	sv("serve.queue_wait_us_p50", "us", "lower", "op_ms_p50")
	sv("serve.batch_size_mean", "count", "higher", "ops_per_s")
	sv("serve.pool_hit_ratio", "ratio", "higher", "op_ms_p50")
	sv("serve.req_ms_p50.repeat", "ms", "lower", "op_ms_p50")
	sv("serve.req_ms_p50.fresh", "ms", "lower", "op_ms_p50")
	sv("serve.req_ms_p99", "ms", "lower", "ops_per_s")
	sv("serve.gen_late_ms_p95", "ms", "lower", "op_ms_p50")
	sv("serve.rejected_429", "count", "lower", "ops_per_s")
	sv("serve.errors_5xx", "count", "lower", "ops_per_s")
	sv("serve.cold_first_request_ms", "ms", "lower", "setup_s")

	// accelimpl: the modeled-device path; host wall is measured, the device
	// clock is the performance model's output.
	for _, d := range []string{"cuda_p5000", "opencl_x86"} {
		add("accelimpl.host_gflops."+d+".nuc_large", "GFLOPS", "higher", "measured", "eval_gflops", nucW)
		add("accelimpl.modeled_gflops."+d+".nuc_large", "GFLOPS", "higher", "modeled", "eval_gflops", nucW)
	}

	// tree / substmodel: client-side machinery the served path also runs.
	add("tree.parse_newick_us.16tips", "us", "lower", "measured", "op_ms_p50", serveW)
	add("substmodel.eigen_us.4", "us", "lower", "measured", "ops_per_s", []string{"mcmc_reuse", "serve_http"})
	add("substmodel.eigen_us.61", "us", "lower", "measured", "setup_s", codonW)

	// harness: what the measurement itself costs and how steady it was.
	add("harness.trace_overhead_ratio", "ratio", "lower", "measured", "op_ms_p50", allW)
	last().perWorkload = true
	add("harness.round_iqr_ratio", "ratio", "lower", "measured", "op_ms_p50", allW)
	last().perWorkload = true

	// The tail of the end-to-end operation, from the untraced rounds of every
	// run. It carries a bound, and -compare judges it like an end-to-end
	// metric, but BENCHMARK.json lists it here, where the acceptance driver
	// sets none: the driver refuses a benchmark whose run-to-run spread
	// exceeds a bound and knows no "unresolved", and on the build host this
	// spread was anywhere from 5 % to 80 % (README, "Tail"). Its bound is the
	// widest BENCHMARK.json could carry.
	add("op_ms_p95", "ms", "lower", "measured", "op_ms_p50", allW)
	last().perWorkload = true
	last().bound = 0.25
	return out
}

var perLayer = layerMetrics()

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}
