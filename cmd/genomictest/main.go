// Command genomictest is the library's synthetic benchmark and correctness
// program, the Go counterpart of the genomictest tool the paper extends in
// §V-A: it generates random synthetic datasets of arbitrary size, evaluates
// the phylogenetic likelihood through any available implementation, reports
// throughput in effective GFLOPS, and can cross-check every resource against
// the serial CPU reference.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"gobeagle"
	"gobeagle/internal/benchmarks"
	"gobeagle/internal/flops"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available resources and exit")
		recommend = flag.Bool("recommend", false, "rank implementations by expected throughput for this problem shape and exit")
		check     = flag.Bool("check", false, "verify every resource against the CPU serial reference")
		taxa      = flag.Int("taxa", 16, "number of taxa (tree tips)")
		states    = flag.Int("states", 4, "character states: 4 nucleotide, 20 amino acid, 61 codon")
		patterns  = flag.Int("patterns", 10000, "unique site patterns")
		cats      = flag.Int("categories", 4, "rate categories (discrete gamma)")
		reps      = flag.Int("reps", 5, "benchmark repetitions")
		seed      = flag.Int64("seed", 42, "random seed")
		resource  = flag.String("resource", "CPU (host)", "resource name (see -list)")
		framework = flag.String("framework", "", "restrict resource lookup to CUDA or OpenCL")
		precision = flag.String("precision", "double", "single or double")
		threading = flag.String("threading", "none", "CPU threading: none, futures, threadcreate, threadpool, hybrid")
		sse       = flag.Bool("sse", false, "use the SSE-style 4-state kernels (CPU resource)")
		noFMA     = flag.Bool("no-fma", false, "build accelerator kernels without fused multiply-add")
		workGroup = flag.Int("workgroup", 0, "accelerator work-group size in patterns (0 = default)")
		threads   = flag.Int("threads", 0, "CPU worker threads (0 = all)")
		stats     = flag.Bool("stats", false, "enable telemetry and print per-kernel op counts and timings")
		tracePath = flag.String("trace", "", "enable span tracing and write a Chrome trace-event JSON timeline to this file")
	)
	flag.Parse()

	if *list {
		for _, r := range gobeagle.ResourceList() {
			fmt.Println(r)
			fmt.Printf("    implementations: %s\n", strings.Join(r.Implementations(), ", "))
		}
		return
	}

	if *recommend {
		recs, err := benchmarks.Recommend(*taxa, *states, *patterns, *cats, *precision == "single")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("expected throughput ranking for %d taxa, %d states, %d patterns, %d categories (%s):\n",
			*taxa, *states, *patterns, *cats, *precision)
		for i, r := range recs {
			fmt.Printf("  %d. %-38s %8.1f GFLOPS\n", i+1, r.Setup, r.GFLOPS)
		}
		return
	}

	flags, err := buildFlags(*precision, *threading, *sse, *noFMA)
	if err != nil {
		fatal(err)
	}
	if *stats {
		flags |= gobeagle.FlagTelemetry
	}
	if *tracePath != "" {
		flags |= gobeagle.FlagTrace
	}
	p, err := benchmarks.NewProblem(*seed, *taxa, *states, *patterns, *cats)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("genomictest: %d taxa, %d states, %d patterns, %d categories, %s precision\n",
		*taxa, *states, *patterns, *cats, *precision)

	if *check {
		if err := crossCheck(p, flags); err != nil {
			fatal(err)
		}
		fmt.Println("all resources agree with the CPU serial reference")
		return
	}

	rsc, err := gobeagle.FindResource(*resource, *framework)
	if err != nil {
		fatal(err)
	}
	cfg := p.InstanceConfig(rsc.ID, flags)
	cfg.WorkGroupSize = *workGroup
	cfg.Threads = *threads
	inst, err := gobeagle.NewInstance(cfg)
	if err != nil {
		fatal(err)
	}
	defer inst.Finalize()
	fmt.Printf("implementation: %s\n", inst.Implementation())

	if err := p.Load(inst); err != nil {
		fatal(err)
	}
	mats, lens, ops, root := p.Schedule()
	if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		fatal(err)
	}
	best := time.Duration(math.MaxInt64)
	var lnL float64
	for r := 0; r < *reps; r++ {
		start := time.Now()
		if err := inst.UpdatePartials(ops); err != nil {
			fatal(err)
		}
		lnL, err = inst.CalculateRootLogLikelihoods(root, gobeagle.None)
		if err != nil {
			fatal(err)
		}
		if e := time.Since(start); e < best {
			best = e
		}
	}
	fmt.Printf("log likelihood: %.6f\n", lnL)
	fmt.Printf("best evaluation: %v\n", best)
	fmt.Printf("measured throughput: %.2f GFLOPS (effective)\n",
		flops.GFLOPS(p.FlopsPerEval(), best))
	if q := inst.DeviceQueue(); q != nil {
		fmt.Printf("device: %d kernel launches, %d bytes transferred, modeled device time %v\n",
			q.Launches(), q.BytesTransferred(), q.ModeledTime())
	}
	if *stats {
		printStats(inst.Stats())
	}
	if *tracePath != "" {
		if err := writeTrace(inst, *tracePath); err != nil {
			fatal(err)
		}
	}
}

// writeTrace exports the instance's span timeline as Chrome trace-event JSON.
func writeTrace(inst *gobeagle.Instance, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = inst.TraceJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s — load in ui.perfetto.dev\n", inst.TraceSpanCount(), path)
	return nil
}

// printStats renders the telemetry snapshot: per-kernel op counts and
// timings, cumulative effective GFLOPS, and the most recent scheduler phase
// traces of the threaded strategies.
func printStats(s gobeagle.Stats) {
	fmt.Printf("telemetry: %s (%s), %d batches, %.3g effective flops, %.2f GFLOPS cumulative\n",
		s.Implementation, s.Strategy, s.Batches, s.TotalFlops, s.EffectiveGFLOPS)
	fmt.Printf("  %-12s %10s %8s %12s %12s %12s %12s\n",
		"kernel", "ops", "calls", "total", "mean/op", "min", "max")
	for _, k := range s.Kernels {
		fmt.Printf("  %-12s %10d %8d %12v %12v %12v %12v\n",
			k.Kernel, k.Ops, k.Calls, k.Total.Round(time.Microsecond),
			k.MeanPerOp().Round(time.Nanosecond), k.Min.Round(time.Nanosecond),
			k.Max.Round(time.Nanosecond))
	}
	if n := len(s.Levels); n > 0 {
		show := s.Levels
		const maxShown = 8
		if n > maxShown {
			show = show[n-maxShown:]
		}
		fmt.Printf("  last %d scheduler levels (of %d retained):\n", len(show), n)
		for _, l := range show {
			fmt.Printf("    batch %d level %d: %d ops as %d tasks in %v\n",
				l.Batch, l.Level, l.Ops, l.Tasks, l.Wall.Round(time.Microsecond))
		}
	}
}

func buildFlags(precision, threading string, sse, noFMA bool) (gobeagle.Flags, error) {
	var f gobeagle.Flags
	switch precision {
	case "single":
		f |= gobeagle.FlagPrecisionSingle
	case "double":
	default:
		return 0, fmt.Errorf("unknown precision %q", precision)
	}
	switch threading {
	case "none", "":
	case "futures":
		f |= gobeagle.FlagThreadingFutures
	case "threadcreate":
		f |= gobeagle.FlagThreadingThreadCreate
	case "threadpool":
		f |= gobeagle.FlagThreadingThreadPool
	case "hybrid", "threadpoolhybrid":
		f |= gobeagle.FlagThreadingThreadPoolHybrid
	default:
		return 0, fmt.Errorf("unknown threading %q", threading)
	}
	if sse {
		f |= gobeagle.FlagVectorSSE
	}
	if noFMA {
		f |= gobeagle.FlagDisableFMA
	}
	return f, nil
}

// crossCheck evaluates the problem on every resource, and on every CPU
// threading strategy of the host resource, comparing everything against the
// serial CPU reference.
func crossCheck(p *benchmarks.Problem, flags gobeagle.Flags) error {
	tol := 1e-8
	if flags&gobeagle.FlagPrecisionSingle != 0 {
		tol = 1e-3
	}
	var want float64
	eval := func(resourceID int, f gobeagle.Flags, where string, first bool) error {
		inst, err := gobeagle.NewInstance(p.InstanceConfig(resourceID, f))
		if err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if err := p.Load(inst); err != nil {
			inst.Finalize()
			return err
		}
		mats, lens, ops, root := p.Schedule()
		if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
			inst.Finalize()
			return err
		}
		if err := inst.UpdatePartials(ops); err != nil {
			inst.Finalize()
			return err
		}
		lnL, err := inst.CalculateRootLogLikelihoods(root, gobeagle.None)
		name := inst.Implementation()
		inst.Finalize()
		if err != nil {
			return err
		}
		if first {
			want = lnL
		} else if math.Abs(lnL-want) > tol*math.Abs(want) {
			return fmt.Errorf("%s on %s: lnL %v differs from reference %v",
				name, where, lnL, want)
		}
		fmt.Printf("  %-45s lnL = %.6f  ok\n", fmt.Sprintf("%s (%s)", name, where), lnL)
		return nil
	}
	for i, r := range gobeagle.ResourceList() {
		where := strings.TrimSpace(r.Framework + " " + r.Name)
		if err := eval(r.ID, flags, where, i == 0); err != nil {
			return err
		}
	}
	// Every CPU threading strategy on the host resource, whatever threading
	// the command line selected, so the check scripts exercise the futures,
	// thread-pool and hybrid schedulers on each model configuration.
	base := flags &^ (gobeagle.FlagThreadingFutures | gobeagle.FlagThreadingThreadCreate |
		gobeagle.FlagThreadingThreadPool | gobeagle.FlagThreadingThreadPoolHybrid)
	for _, tf := range []gobeagle.Flags{
		gobeagle.FlagThreadingFutures,
		gobeagle.FlagThreadingThreadCreate,
		gobeagle.FlagThreadingThreadPool,
		gobeagle.FlagThreadingThreadPoolHybrid,
	} {
		if err := eval(0, base|tf, "CPU (host)", false); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genomictest:", err)
	os.Exit(1)
}
