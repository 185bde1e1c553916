package benchmarks

import (
	"fmt"
	"io"
	"time"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
)

// Fig6Row is one bar of Fig. 6: the total-runtime speedup of MrBayes with a
// given likelihood engine relative to the MrBayes-MPI double-precision
// baseline.
type Fig6Row struct {
	Model     string // "nucleotide" or "codon"
	Precision string // "single" or "double"
	Engine    string
	Speedup   float64
}

// Fig. 6 application model: likelihood work is the f-fraction of total
// baseline runtime (the paper reports >94% for DNA models and an "even
// greater proportion" for codon models, §III-A); the remaining (1−f) —
// moves, priors, swaps, I/O — is engine-independent. The four MC3 chains
// keep whichever engine busy in aggregate each generation, so per-generation
// likelihood time scales with the engine's full-machine (or full-device)
// throughput.
const (
	fig6LikelihoodFracNuc   = 0.90
	fig6LikelihoodFracCodon = 0.98
	fig6Chains              = 4
)

// fig6Dataset mirrors the paper's two MrBayes benchmarks: the
// Lepidoptera RNA-Seq nucleotide set and the arthropod codon subset.
type fig6Dataset struct {
	model    string
	tips     int
	patterns int
	states   int
	cats     int
	likFrac  float64
}

var fig6Datasets = []fig6Dataset{
	{"nucleotide", 16, 306780, 4, 4, fig6LikelihoodFracNuc},
	{"codon", 15, 6080, 61, 1, fig6LikelihoodFracCodon},
}

// Fig6 reproduces Fig. 6: MrBayes 3.2.6 speedups for the built-in SSE
// option and the C++ threads, OpenCL-x86 and OpenCL-GPU (FirePro S9170)
// library implementations, in single and double precision, for both
// datasets, all relative to MrBayes-MPI in double precision. The MC3
// sampler itself is implemented in internal/mcmc and validated end to end
// against these engines; the speedups reported here come from the same
// hardware models as Tables III–V and Fig. 4.
func Fig6() ([]Fig6Row, error) {
	xeon := DefaultCPUModel()
	phi := PhiCPUModel()
	gpu, err := gobeagle.FindResource("FirePro S9170", "OpenCL")
	if err != nil {
		return nil, err
	}
	x86, err := gobeagle.FindResource("Xeon E5-2680v4 x2", "OpenCL")
	if err != nil {
		return nil, err
	}

	var rows []Fig6Row
	for _, ds := range fig6Datasets {
		p, err := NewProblem(2026, ds.tips, ds.states, ds.patterns, ds.cats)
		if err != nil {
			return nil, err
		}
		// Verify each engine class on a real, smaller instance of the same
		// configuration before trusting the model at full size.
		vp, err := NewProblem(2027, ds.tips, ds.states, 200, ds.cats)
		if err != nil {
			return nil, err
		}
		if err := HostEval(vp, gobeagle.FlagThreadingThreadPool); err != nil {
			return nil, err
		}
		if _, err := DeviceEval(vp, "FirePro S9170", "OpenCL", 0, 0, 1); err != nil {
			return nil, err
		}
		if _, err := DeviceEval(vp, "Xeon E5-2680v4 x2", "OpenCL", 0, 0, 1); err != nil {
			return nil, err
		}

		// Baseline: MrBayes-MPI, scalar double, one core per chain.
		lBase := xeon.EvalTime(cpuimpl.Serial, 1, p, false)
		overhead := time.Duration(float64(lBase) * (1/ds.likFrac - 1))
		tBase := overhead + lBase

		for _, prec := range []struct {
			name   string
			single bool
			flag   gobeagle.Flags
		}{{"double", false, 0}, {"single", true, gobeagle.FlagPrecisionSingle}} {
			// Built-in SSE (MrBayes native vectorization; effective for
			// nucleotide data, scalar otherwise).
			lSSE := xeon.EvalTime(cpuimpl.SSE, 1, p, prec.single)
			rows = append(rows, Fig6Row{ds.model, prec.name, "MrBayes SSE",
				float64(tBase) / float64(overhead+lSSE)})

			// C++ threads: thread-pool across the whole machine.
			lPool := xeon.EvalTime(cpuimpl.ThreadPool, xeon.Desc.Cores, p, prec.single)
			rows = append(rows, Fig6Row{ds.model, prec.name, "C++ threads (Xeon E5 x2)",
				float64(tBase) / float64(overhead+lPool)})

			// C++ threads on the Xeon Phi 7210.
			lPhi := phi.EvalTime(cpuimpl.ThreadPool, phi.Desc.Cores, p, prec.single)
			rows = append(rows, Fig6Row{ds.model, prec.name, "C++ threads (Xeon Phi 7210)",
				float64(tBase) / float64(overhead+lPhi)})

			// OpenCL-x86 across the whole machine.
			lX86, err := modeledEvalTime(p, x86, prec.flag, 0, 0, 1, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig6Row{ds.model, prec.name, "OpenCL-x86 (Xeon E5 x2)",
				float64(tBase) / float64(overhead+lX86)})

			// OpenCL-GPU on the FirePro S9170.
			lGPU, err := modeledEvalTime(p, gpu, prec.flag, 0, 0, 1, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig6Row{ds.model, prec.name, "OpenCL-GPU (FirePro S9170)",
				float64(tBase) / float64(overhead+lGPU)})
		}
	}
	return rows, nil
}

// Headline returns the paper's §I headline number from the rows: the
// codon-model single-precision OpenCL-x86 speedup on the dual Xeon.
func Headline(rows []Fig6Row) float64 {
	for _, r := range rows {
		if r.Model == "codon" && r.Precision == "single" && r.Engine == "OpenCL-x86 (Xeon E5 x2)" {
			return r.Speedup
		}
	}
	return 0
}

// PrintFig6 renders the rows grouped as in the figure.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Fig. 6: MrBayes 3.2.6 total-runtime speedups vs MrBayes-MPI double precision")
	for _, model := range []string{"nucleotide", "codon"} {
		for _, prec := range []string{"double", "single"} {
			fmt.Fprintf(w, "  %s model, %s precision:\n", model, prec)
			for _, r := range rows {
				if r.Model == model && r.Precision == prec {
					fmt.Fprintf(w, "    %-28s %6.1fx\n", r.Engine, r.Speedup)
				}
			}
		}
	}
	fmt.Fprintf(w, "  headline (codon, single, OpenCL-x86 on 2x Xeon E5-2680v4): %.0fx (paper: 39x)\n",
		Headline(rows))
}
