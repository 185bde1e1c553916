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
// problem shape) for the CI benchmark artifacts.
//
// With -compare PATH each experiment's fresh report is gated against its
// committed baseline (PATH is a baseline directory holding
// BENCH_<experiment>.json files, or a single baseline file): a record that
// no longer reproduces its baseline within benchmarks.Tolerance, in either
// direction, fails the run with a nonzero exit. With -trace FILE a small
// traced multi-device evaluation additionally writes a Chrome trace-event
// JSON timeline.
//
// Usage:
//
//	beaglebench -experiment table3|table3hybrid|table4|table5|fig4|fig4smoke|fig5|fig6|all
//	            [-json DIR] [-compare PATH] [-trace FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gobeagle/internal/benchmarks"
)

// runners is the experiment registry: every name -experiment accepts.
var runners = map[string]func(io.Writer) (benchmarks.Report, error){
	"table3":       runTable3,
	"table3hybrid": runTable3Hybrid,
	"table4":       runTable4,
	"table5":       runTable5,
	"fig4":         runFig4,
	"fig4smoke":    runFig4Smoke,
	"fig5":         runFig5,
	"fig6":         runFig6,
}

// allOrder is what "all" runs: the paper's experiment set in the paper's
// order. fig4smoke is fig4 at a handful of pattern counts for CI, not part
// of it.
var allOrder = []string{"table3", "table3hybrid", "table4", "table5", "fig4", "fig5", "fig6"}

// experimentNames returns the registry's names, sorted.
func experimentNames() []string {
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// experimentUsage is the -experiment flag help.
func experimentUsage() string { return strings.Join(experimentNames(), ", ") + ", or all" }

func main() {
	experiment := flag.String("experiment", "all", experimentUsage())
	jsonDir := flag.String("json", "", "directory to also write machine-readable BENCH_<experiment>.json reports")
	compare := flag.String("compare", "", "baseline directory (or single BENCH_<experiment>.json) each experiment must reproduce")
	tracePath := flag.String("trace", "", "also capture a traced multi-device evaluation to this Chrome trace-event JSON file")
	flag.Parse()

	selected := []string{}
	if *experiment == "all" {
		selected = allOrder
	} else if _, ok := runners[*experiment]; ok {
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

	gateFailed := false
	for _, name := range selected {
		start := time.Now()
		rep, err := runners[name](os.Stdout)
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
		if *compare != "" {
			if gateExperiment(*compare, rep) {
				gateFailed = true
			}
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

	if gateFailed {
		fmt.Fprintln(os.Stderr, "beaglebench: benchmark gate failed")
		os.Exit(1)
	}
}

// gateExperiment compares one fresh report against its baseline and prints
// the result; returns true when the gate failed. A missing baseline file is
// a hard error: the gate must not silently pass ungated experiments.
func gateExperiment(path string, rep benchmarks.Report) bool {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "BENCH_"+rep.Experiment+".json")
	}
	baseline, err := benchmarks.ReadReport(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beaglebench: %s: baseline: %v\n", rep.Experiment, err)
		return true
	}
	cmp, err := benchmarks.Compare(baseline, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "beaglebench: %s: %v\n", rep.Experiment, err)
		return true
	}
	benchmarks.PrintComparison(os.Stdout, cmp)
	return cmp.Failed()
}

func runTable3(w io.Writer) (benchmarks.Report, error) {
	rows, err := benchmarks.Table3(600)
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintTable3(w, rows)
	return benchmarks.Table3Report(rows), nil
}

func runTable3Hybrid(w io.Writer) (benchmarks.Report, error) {
	rows, err := benchmarks.Table3Hybrid(true)
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintTable3Hybrid(w, rows)
	return benchmarks.Table3HybridReport(rows), nil
}

func runTable4(w io.Writer) (benchmarks.Report, error) {
	rows, err := benchmarks.Table4()
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintTable4(w, rows)
	return benchmarks.Table4Report(rows), nil
}

func runTable5(w io.Writer) (benchmarks.Report, error) {
	rows, err := benchmarks.Table5()
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintTable5(w, rows)
	return benchmarks.Table5Report(rows), nil
}

func runFig4(w io.Writer) (benchmarks.Report, error) {
	panels, err := benchmarks.Fig4()
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintFig4(w, panels)
	return benchmarks.Fig4Report("fig4", panels), nil
}

// runFig4Smoke runs the Fig. 4 sweep at a handful of pattern counts so CI can
// produce a BENCH JSON artifact in seconds rather than minutes.
func runFig4Smoke(w io.Writer) (benchmarks.Report, error) {
	panels, err := benchmarks.Fig4With([]int{100, 1000, 10000}, []int{100, 1000})
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintFig4(w, panels)
	return benchmarks.Fig4Report("fig4smoke", panels), nil
}

func runFig5(w io.Writer) (benchmarks.Report, error) {
	points, err := benchmarks.Fig5()
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintFig5(w, points)
	return benchmarks.Fig5Report(points), nil
}

func runFig6(w io.Writer) (benchmarks.Report, error) {
	rows, err := benchmarks.Fig6()
	if err != nil {
		return benchmarks.Report{}, err
	}
	benchmarks.PrintFig6(w, rows)
	return benchmarks.Fig6Report(rows), nil
}
