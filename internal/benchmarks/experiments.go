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

func runTable3(w io.Writer) (Report, error) {
	rows, err := Table3(600)
	if err != nil {
		return Report{}, err
	}
	PrintTable3(w, rows)
	return Table3Report(rows), nil
}

func runTable3Hybrid(w io.Writer) (Report, error) {
	rows, err := Table3Hybrid(true)
	if err != nil {
		return Report{}, err
	}
	PrintTable3Hybrid(w, rows)
	return Table3HybridReport(rows), nil
}

func runTable4(w io.Writer) (Report, error) {
	rows, err := Table4()
	if err != nil {
		return Report{}, err
	}
	PrintTable4(w, rows)
	return Table4Report(rows), nil
}

func runTable5(w io.Writer) (Report, error) {
	rows, err := Table5()
	if err != nil {
		return Report{}, err
	}
	PrintTable5(w, rows)
	return Table5Report(rows), nil
}

func runFig4(w io.Writer) (Report, error) {
	panels, err := Fig4()
	if err != nil {
		return Report{}, err
	}
	PrintFig4(w, panels)
	return Fig4Report("fig4", panels), nil
}

// runFig4Smoke runs the Fig. 4 sweep at a handful of pattern counts so CI can
// produce a BENCH JSON artifact in seconds rather than minutes.
func runFig4Smoke(w io.Writer) (Report, error) {
	panels, err := Fig4With([]int{100, 1000, 10000}, []int{100, 1000})
	if err != nil {
		return Report{}, err
	}
	PrintFig4(w, panels)
	return Fig4Report("fig4smoke", panels), nil
}

func runFig5(w io.Writer) (Report, error) {
	points, err := Fig5()
	if err != nil {
		return Report{}, err
	}
	PrintFig5(w, points)
	return Fig5Report(points), nil
}

func runFig6(w io.Writer) (Report, error) {
	rows, err := Fig6()
	if err != nil {
		return Report{}, err
	}
	PrintFig6(w, rows)
	return Fig6Report(rows), nil
}
