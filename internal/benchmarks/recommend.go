package benchmarks

import (
	"gobeagle"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/flops"
)

// Recommendation names the implementation/resource pair expected to be
// fastest for a problem shape, with its modeled throughput.
type Recommendation struct {
	Resource  string // resource name, or "CPU (host)" for the threaded model
	Framework string // "", "CUDA" or "OpenCL"
	Setup     string // human-readable implementation description
	GFLOPS    float64
}

// Recommend scores every implementation/resource pair with the same
// performance models that regenerate the paper's tables and returns them
// best-first — the automatic selection the paper's conclusion identifies as
// the open problem ("selecting the best performing implementation depends
// not only on the hardware available but on problem size and type"). Small
// problems favor CPUs (kernel-launch overhead dominates accelerators);
// large pattern counts favor GPUs; codon models favor accelerators earlier
// than nucleotide models do.
func Recommend(tips, stateCount, patterns, categories int, single bool) ([]Recommendation, error) {
	p, err := NewProblem(1, tips, stateCount, patterns, categories)
	if err != nil {
		return nil, err
	}
	flags := gobeagle.Flags(0)
	if single {
		flags |= gobeagle.FlagPrecisionSingle
	}

	var out []Recommendation
	// The CPU threaded model on the reference host.
	xeon := DefaultCPUModel()
	out = append(out, Recommendation{
		Resource: "CPU (host)",
		Setup:    "C++ threads (thread-pool)",
		GFLOPS:   xeon.ThroughputGF(cpuimpl.ThreadPool, xeon.Desc.Cores, p, single),
	})
	out = append(out, Recommendation{
		Resource: "CPU (host)",
		Setup:    "C++ threads (hybrid op x pattern)",
		GFLOPS:   xeon.ThroughputGF(cpuimpl.ThreadPoolHybrid, xeon.Desc.Cores, p, single),
	})
	// Every accelerator device, modeled through a dry-run evaluation.
	for _, spec := range fig4Devices {
		rsc, err := gobeagle.FindResource(spec.resource, spec.framework)
		if err != nil {
			return nil, err
		}
		t, err := modeledEvalTime(p, rsc, flags, 0, 0, 1, true)
		if err != nil {
			return nil, err
		}
		out = append(out, Recommendation{
			Resource:  spec.resource,
			Framework: spec.framework,
			Setup:     spec.name,
			GFLOPS:    flops.GFLOPS(p.FlopsPerEval(), t),
		})
	}
	// Sort best-first (insertion sort; the list is tiny).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].GFLOPS > out[j-1].GFLOPS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}
