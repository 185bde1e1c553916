// Command beaglebench regenerates every table and figure of the paper's
// evaluation on the calibrated device and CPU performance models documented
// in DESIGN.md, since neither the paper's GPUs nor its 56-thread Xeon host
// are available to the build machine. Each experiment really executes the
// implementations it models (verifying likelihood correctness), but every
// number it reports is model output and therefore deterministic; wall-clock
// measurement is bench/mark's job.
//
// With -json DIR each experiment also writes a machine-readable
// BENCH_<experiment>.json report (effective GFLOPS per device, strategy and
// problem shape) for the CI benchmark artifacts. The committed copies in
// internal/benchmarks/testdata are the reports TestExperimentsGolden holds
// every experiment to; after a change that means to move a modeled number,
// regenerate them with
//
//	beaglebench -experiment all -json internal/benchmarks/testdata
//	beaglebench -experiment fig4smoke -json internal/benchmarks/testdata
//
// With -trace FILE a small traced multi-device evaluation additionally
// writes a Chrome trace-event JSON timeline.
//
// Usage:
//
//	beaglebench -experiment table3|table3hybrid|table4|table5|fig4|fig4smoke|fig5|fig6|all
//	            [-json DIR] [-trace FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gobeagle/internal/benchmarks"
)

// experimentUsage is the -experiment flag help.
func experimentUsage() string {
	return strings.Join(benchmarks.ExperimentNames(), ", ") + ", or all"
}

func main() {
	experiment := flag.String("experiment", "all", experimentUsage())
	jsonDir := flag.String("json", "", "directory to also write machine-readable BENCH_<experiment>.json reports")
	tracePath := flag.String("trace", "", "also capture a traced multi-device evaluation to this Chrome trace-event JSON file")
	flag.Parse()

	selected := []string{}
	if *experiment == "all" {
		selected = benchmarks.AllOrder
	} else if _, ok := benchmarks.Experiments[*experiment]; ok {
		selected = []string{*experiment}
	} else {
		fmt.Fprintf(os.Stderr, "beaglebench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "beaglebench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, name := range selected {
		start := time.Now()
		rep, err := benchmarks.Experiments[name](os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "beaglebench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *jsonDir != "" {
			path, err := benchmarks.WriteReport(*jsonDir, rep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "beaglebench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("[wrote %s]\n", path)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "beaglebench: %v\n", err)
			os.Exit(1)
		}
		spans, err := benchmarks.CaptureTrace(f, 3)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "beaglebench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %d spans to %s — load in ui.perfetto.dev]\n", spans, *tracePath)
	}
}
