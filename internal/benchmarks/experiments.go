package benchmarks

import (
	"io"
	"sort"
)

// Experiments is the registry of the paper reproduction: every name
// beaglebench -experiment accepts. Each entry runs its experiment with the
// parameters the command uses, prints it to w and returns its
// machine-readable report; TestExperimentsGolden pins every report.
var Experiments = map[string]func(w io.Writer) (Report, error){
	"table3":       runTable3,
	"table3hybrid": runTable3Hybrid,
	"table4":       runTable4,
	"table5":       runTable5,
	"fig4":         runFig4,
	"fig4smoke":    runFig4Smoke,
	"fig5":         runFig5,
	"fig6":         runFig6,
}

// AllOrder is what "all" runs: the paper's experiment set in the paper's
// order. fig4smoke is fig4 at a handful of pattern counts for CI, not part
// of it.
var AllOrder = []string{"table3", "table3hybrid", "table4", "table5", "fig4", "fig5", "fig6"}

// ExperimentNames returns the registry's names, sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments))
	for name := range Experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// experiment runs an experiment's rows, prints them to w and returns their
// report: the shape of every registry entry.
func experiment[R any](w io.Writer, rows func() (R, error), print func(io.Writer, R), report func(R) Report) (Report, error) {
	r, err := rows()
	if err != nil {
		return Report{}, err
	}
	print(w, r)
	return report(r), nil
}

func runTable3(w io.Writer) (Report, error) {
	return experiment(w, func() ([]Table3Row, error) { return Table3(600) }, PrintTable3, Table3Report)
}

func runTable3Hybrid(w io.Writer) (Report, error) {
	return experiment(w, func() ([]HybridRow, error) { return Table3Hybrid(true) }, PrintTable3Hybrid, Table3HybridReport)
}

func runTable4(w io.Writer) (Report, error) {
	return experiment(w, Table4, PrintTable4, Table4Report)
}

func runTable5(w io.Writer) (Report, error) {
	return experiment(w, Table5, PrintTable5, Table5Report)
}

func runFig4(w io.Writer) (Report, error) {
	return experiment(w, Fig4, PrintFig4, func(p []Fig4Panel) Report { return Fig4Report("fig4", p) })
}

// runFig4Smoke runs the Fig. 4 sweep at a handful of pattern counts so CI can
// produce a BENCH JSON artifact in seconds rather than minutes.
func runFig4Smoke(w io.Writer) (Report, error) {
	return experiment(w, func() ([]Fig4Panel, error) { return Fig4With([]int{100, 1000, 10000}, []int{100, 1000}) },
		PrintFig4, func(p []Fig4Panel) Report { return Fig4Report("fig4smoke", p) })
}

func runFig5(w io.Writer) (Report, error) {
	return experiment(w, Fig5, PrintFig5, Fig5Report)
}

func runFig6(w io.Writer) (Report, error) {
	return experiment(w, Fig6, PrintFig6, Fig6Report)
}
