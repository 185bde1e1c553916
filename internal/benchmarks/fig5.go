package benchmarks

import (
	"fmt"
	"io"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/flops"
)

// Fig5Point is one point of Fig. 5: throughput at a given CPU thread count.
type Fig5Point struct {
	Threads       int
	ThreadedModel float64 // C++ threads GFLOPS
	OpenCLX86     float64 // OpenCL-x86 via device fission GFLOPS
}

// Fig5 reproduces Fig. 5: multicore scaling of the threaded model and the
// OpenCL-x86 implementation for the nucleotide likelihood with 10⁴ patterns
// on the dual Xeon E5-2680v4 (1..56 threads; the paper uses taskset for the
// threaded model and OpenCL device fission for OpenCL-x86). Throughput is
// expected to saturate around 27 threads from memory bandwidth.
func Fig5() ([]Fig5Point, error) {
	p, err := NewProblem(5, 16, 4, 10000, 4)
	if err != nil {
		return nil, err
	}
	// Really execute the threaded model's configuration once; every
	// OpenCL-x86 point below is itself executed and verified.
	if err := HostEval(p, gobeagle.FlagPrecisionSingle|gobeagle.FlagThreadingThreadPool); err != nil {
		return nil, err
	}
	rsc, err := gobeagle.FindResource("Xeon E5-2680v4 x2", "OpenCL")
	if err != nil {
		return nil, err
	}
	model := DefaultCPUModel()
	var points []Fig5Point
	for _, threads := range []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 34, 40, 48, 56} {
		pt := Fig5Point{
			Threads:       threads,
			ThreadedModel: model.ThroughputGF(cpuimpl.ThreadPool, threads, p, true),
		}
		// The registry fissions the device down to the thread count.
		t, err := modeledEvalTime(p, rsc, gobeagle.FlagPrecisionSingle, threads, 0, 1, false)
		if err != nil {
			return nil, err
		}
		pt.OpenCLX86 = flops.GFLOPS(p.FlopsPerEval(), t)
		points = append(points, pt)
	}
	return points, nil
}

// PrintFig5 renders the scaling curve.
func PrintFig5(w io.Writer, points []Fig5Point) {
	fmt.Fprintln(w, "Fig. 5: multicore scaling, nucleotide model, 10,000 patterns (GFLOPS)")
	fmt.Fprintln(w, "threads   C++ threads   OpenCL-x86")
	for _, pt := range points {
		fmt.Fprintf(w, "%7d  %12.2f  %11.2f\n", pt.Threads, pt.ThreadedModel, pt.OpenCLX86)
	}
}
