package benchmarks

import (
	"fmt"
	"io"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/flops"
)

// Fig4Series is one line of Fig. 4: throughput of the core likelihood
// kernel for one implementation/device pair across unique-site-pattern
// counts.
type Fig4Series struct {
	Name     string
	Patterns []int
	GFLOPS   []float64
}

// Fig4Panel is one panel (nucleotide or codon) of Fig. 4.
type Fig4Panel struct {
	Model  string
	Series []Fig4Series
}

// fig4DeviceSpec describes a device-backed series.
type fig4DeviceSpec struct {
	name      string
	resource  string
	framework string
	flags     gobeagle.Flags
}

var fig4Devices = []fig4DeviceSpec{
	{"CUDA: NVIDIA Quadro P5000", "Quadro P5000", "CUDA", gobeagle.FlagPrecisionSingle},
	{"OpenCL-GPU: NVIDIA Quadro P5000", "Quadro P5000", "OpenCL", gobeagle.FlagPrecisionSingle},
	{"OpenCL-GPU: AMD FirePro S9170", "FirePro S9170", "OpenCL", gobeagle.FlagPrecisionSingle},
	{"OpenCL-GPU: AMD Radeon R9 Nano", "Radeon R9 Nano", "OpenCL", gobeagle.FlagPrecisionSingle},
	{"OpenCL-x86: Intel Xeon E5-2680v4 x2", "Xeon E5-2680v4 x2", "OpenCL", gobeagle.FlagPrecisionSingle},
}

// fig4Tips is the tree size used for the kernel sweep.
const fig4Tips = 16

// verifyLimit bounds the pattern count at which configurations execute for
// real; beyond it the identical configuration runs on the modeled clock
// only (dry run), having been verified at the largest real size.
func fig4VerifyLimit(stateCount int) int {
	if stateCount >= 61 {
		return 1000
	}
	return 20000
}

// deviceSweep produces one device-backed series across pattern counts.
func deviceSweep(spec fig4DeviceSpec, stateCount, cats int, patterns []int) (Fig4Series, error) {
	s := Fig4Series{Name: spec.name, Patterns: patterns}
	rsc, err := gobeagle.FindResource(spec.resource, spec.framework)
	if err != nil {
		return s, err
	}
	limit := fig4VerifyLimit(stateCount)
	for _, pat := range patterns {
		p, err := NewProblem(int64(pat), fig4Tips, stateCount, pat, cats)
		if err != nil {
			return s, err
		}
		t, err := modeledEvalTime(p, rsc, spec.flags, 0, 0, 1, pat > limit)
		if err != nil {
			return s, err
		}
		s.GFLOPS = append(s.GFLOPS, flops.GFLOPS(p.FlopsPerEval(), t))
	}
	return s, nil
}

// cpuModelSweep produces an analytically modeled CPU series.
func cpuModelSweep(name string, m CPUModel, mode cpuimpl.Mode, threads, stateCount, cats int, patterns []int) (Fig4Series, error) {
	s := Fig4Series{Name: name, Patterns: patterns}
	for _, pat := range patterns {
		p, err := NewProblem(int64(pat), fig4Tips, stateCount, pat, cats)
		if err != nil {
			return s, err
		}
		s.GFLOPS = append(s.GFLOPS, m.ThroughputGF(mode, threads, p, true))
	}
	return s, nil
}

// Fig4 reproduces both panels of Fig. 4 (single precision, 4 rate
// categories, 16-tip trees): nucleotide models swept to 10⁶ patterns and
// codon models to 5·10⁴.
func Fig4() ([]Fig4Panel, error) {
	return Fig4With(
		[]int{100, 316, 1000, 3162, 10000, 31623, 100000, 316228, 1000000},
		[]int{100, 316, 1000, 3162, 10000, 31623, 50000})
}

// Fig4With runs the Fig. 4 sweep over caller-chosen pattern counts (tests
// use reduced sweeps).
func Fig4With(nucPatterns, codonPatterns []int) ([]Fig4Panel, error) {
	var panels []Fig4Panel
	for _, panel := range []struct {
		model    string
		states   int
		patterns []int
	}{
		{"nucleotide", 4, nucPatterns},
		{"codon", 61, codonPatterns},
	} {
		out := Fig4Panel{Model: panel.model}
		for _, spec := range fig4Devices {
			s, err := deviceSweep(spec, panel.states, 4, panel.patterns)
			if err != nil {
				return nil, err
			}
			out.Series = append(out.Series, s)
		}
		xeon := DefaultCPUModel()
		phi := PhiCPUModel()
		cpuSeries := []struct {
			name    string
			m       CPUModel
			mode    cpuimpl.Mode
			threads int
		}{
			{"C++ threads: Intel Xeon Phi 7210", phi, cpuimpl.ThreadPool, phi.Desc.Cores},
			{"C++ threads: Intel Xeon E5-2680v4 x2", xeon, cpuimpl.ThreadPool, xeon.Desc.Cores},
			{"C++ serial: Intel Xeon E5-2680", xeon, cpuimpl.Serial, 1},
		}
		for _, cs := range cpuSeries {
			s, err := cpuModelSweep(cs.name, cs.m, cs.mode, cs.threads, panel.states, 4, panel.patterns)
			if err != nil {
				return nil, err
			}
			out.Series = append(out.Series, s)
		}
		panels = append(panels, out)
	}
	return panels, nil
}

// PrintFig4 renders the panels as aligned series tables.
func PrintFig4(w io.Writer, panels []Fig4Panel) {
	for _, panel := range panels {
		fmt.Fprintf(w, "Fig. 4 (%s model): partial-likelihoods throughput in GFLOPS\n", panel.Model)
		fmt.Fprintf(w, "%-38s", "unique site patterns ->")
		for _, pat := range panel.Series[0].Patterns {
			fmt.Fprintf(w, "%9d", pat)
		}
		fmt.Fprintln(w)
		for _, s := range panel.Series {
			fmt.Fprintf(w, "%-38s", s.Name)
			for _, gf := range s.GFLOPS {
				fmt.Fprintf(w, "%9.1f", gf)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}
