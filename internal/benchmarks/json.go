package benchmarks

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Record is one machine-readable benchmark result: the modeled effective
// throughput (or speedup) of one (device, strategy, problem-shape)
// configuration. Every value comes from the calibrated device and CPU models,
// so a record is deterministic; wall-clock measurement lives in bench/mark.
// Fields that do not apply to an experiment are omitted.
type Record struct {
	// Device names the hardware the number is modeled for; Implementation
	// the library implementation; Strategy the CPU scheduling strategy or
	// "device".
	Device         string `json:"device,omitempty"`
	Implementation string `json:"implementation,omitempty"`
	Strategy       string `json:"strategy,omitempty"`
	// Problem shape.
	Model      string `json:"model,omitempty"`
	Precision  string `json:"precision,omitempty"`
	States     int    `json:"states,omitempty"`
	Patterns   int    `json:"patterns,omitempty"`
	Categories int    `json:"categories,omitempty"`
	Tips       int    `json:"tips,omitempty"`
	Threads    int    `json:"threads,omitempty"`
	WorkGroup  int    `json:"work_group,omitempty"`
	// Results. GFLOPS is effective throughput per the paper's §V-A flop
	// accounting; Speedup is relative to the experiment's stated baseline.
	GFLOPS  float64 `json:"gflops,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
}

// Report is the machine-readable form of one experiment, written as
// BENCH_<experiment>.json by beaglebench -json and consumed by the CI
// benchmark-smoke artifact.
type Report struct {
	Experiment  string   `json:"experiment"`
	Description string   `json:"description"`
	Unit        string   `json:"unit"`
	Records     []Record `json:"records"`
}

// WriteReport writes the report to dir/BENCH_<experiment>.json and returns
// the path.
func WriteReport(dir string, r Report) (string, error) {
	if r.Experiment == "" {
		return "", fmt.Errorf("benchmarks: report has no experiment name")
	}
	path := filepath.Join(dir, "BENCH_"+r.Experiment+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// xeonDevice labels the modeled CPU host shared by the CPU-side experiments.
const xeonDevice = "Xeon E5-2680v4 x2 (modeled)"

// Table3Report converts Table III rows: one record per (tree size,
// strategy), single precision, 10,000 patterns.
func Table3Report(rows []Table3Row) Report {
	rep := Report{
		Experiment:  "table3",
		Description: "CPU threading optimizations, single precision, 10,000 patterns",
		Unit:        "GFLOPS",
	}
	for _, r := range rows {
		for _, s := range []struct {
			strategy string
			gflops   float64
			threads  int
		}{
			{"serial", r.Serial, 1},
			{"futures", r.Futures, 0},
			{"thread-create", r.ThreadCreate, 0},
			{"thread-pool", r.ThreadPool, 0},
			{"thread-pool-hybrid", r.Hybrid, 0},
		} {
			rep.Records = append(rep.Records, Record{
				Device: xeonDevice, Implementation: "CPU", Strategy: s.strategy,
				Model: "nucleotide", Precision: "single",
				States: 4, Patterns: 10000, Categories: 4, Tips: r.Tips,
				Threads: s.threads, GFLOPS: s.gflops,
			})
		}
	}
	return rep
}

// Table3HybridReport converts the small-pattern hybrid-scheduler extension.
func Table3HybridReport(rows []HybridRow) Report {
	rep := Report{
		Experiment:  "table3hybrid",
		Description: "hybrid op x pattern scheduler at small pattern counts, single precision",
		Unit:        "GFLOPS",
	}
	for _, r := range rows {
		for _, s := range []struct {
			strategy string
			gflops   float64
		}{
			{"serial", r.Serial},
			{"futures", r.Futures},
			{"thread-create", r.ThreadCreate},
			{"thread-pool", r.ThreadPool},
			{"thread-pool-hybrid", r.Hybrid},
		} {
			rep.Records = append(rep.Records, Record{
				Device: xeonDevice, Implementation: "CPU", Strategy: s.strategy,
				Model: "nucleotide", Precision: "single",
				States: 4, Patterns: r.Patterns, Categories: 4, Tips: r.Tips,
				GFLOPS: s.gflops,
			})
		}
	}
	return rep
}

// Table4Report converts the FMA ablation: with/without records per
// (precision, patterns).
func Table4Report(rows []Table4Row) Report {
	rep := Report{
		Experiment:  "table4",
		Description: "OpenCL-GPU FMA kernel-build ablation on the AMD Radeon R9 Nano",
		Unit:        "GFLOPS",
	}
	for _, r := range rows {
		base := Record{
			Device: "Radeon R9 Nano", Strategy: "device",
			Model: "nucleotide", Precision: r.Precision,
			States: 4, Patterns: r.Patterns, Categories: 4, Tips: 16,
		}
		with := base
		with.Implementation = "OpenCL-GPU (FMA)"
		with.GFLOPS = r.WithFMA
		without := base
		without.Implementation = "OpenCL-GPU (no FMA)"
		without.GFLOPS = r.WithoutFMA
		rep.Records = append(rep.Records, without, with)
	}
	return rep
}

// Table5Report converts the work-group size sweep; speedups are relative to
// the GPU-style kernels on the same CPU device.
func Table5Report(rows []Table5Row) Report {
	rep := Report{
		Experiment:  "table5",
		Description: "OpenCL-x86 work-group size sweep on the dual Xeon E5-2680v4",
		Unit:        "GFLOPS",
	}
	for _, r := range rows {
		rep.Records = append(rep.Records, Record{
			Device: "Xeon E5-2680v4 x2", Implementation: r.Solution, Strategy: "device",
			Model: "nucleotide", Precision: "single",
			States: 4, Patterns: 10000, Categories: 4, Tips: 16,
			WorkGroup: r.WorkGroup, GFLOPS: r.Throughput, Speedup: r.Speedup,
		})
	}
	return rep
}

// Fig4Report converts the throughput sweep panels: one record per (series,
// pattern count) — the per-(device, strategy, states, patterns) effective
// GFLOPS behind the paper's Fig. 4.
func Fig4Report(name string, panels []Fig4Panel) Report {
	rep := Report{
		Experiment:  name,
		Description: "partial-likelihoods throughput across unique site pattern counts (Fig. 4)",
		Unit:        "GFLOPS",
	}
	for _, panel := range panels {
		states := 4
		if panel.Model == "codon" {
			states = 61
		}
		for _, s := range panel.Series {
			for i, pat := range s.Patterns {
				rep.Records = append(rep.Records, Record{
					Device: s.Name, Implementation: s.Name, Strategy: "device",
					Model: panel.Model, Precision: "single",
					States: states, Patterns: pat, Categories: 4, Tips: fig4Tips,
					GFLOPS: s.GFLOPS[i],
				})
			}
		}
	}
	return rep
}

// Fig5Report converts the multicore scaling curve.
func Fig5Report(points []Fig5Point) Report {
	rep := Report{
		Experiment:  "fig5",
		Description: "multicore scaling of the threaded model and OpenCL-x86 via device fission",
		Unit:        "GFLOPS",
	}
	for _, pt := range points {
		shape := Record{
			Device: "Xeon E5-2680v4 x2", Model: "nucleotide", Precision: "single",
			States: 4, Patterns: 10000, Categories: 4, Tips: 16, Threads: pt.Threads,
		}
		threaded := shape
		threaded.Implementation = "C++ threads"
		threaded.Strategy = "thread-pool"
		threaded.GFLOPS = pt.ThreadedModel
		x86 := shape
		x86.Implementation = "OpenCL-x86"
		x86.Strategy = "device"
		x86.GFLOPS = pt.OpenCLX86
		rep.Records = append(rep.Records, threaded, x86)
	}
	return rep
}

// Fig6Report converts the application-level speedups (unit: speedup factor
// over MrBayes-MPI double precision, not GFLOPS).
func Fig6Report(rows []Fig6Row) Report {
	rep := Report{
		Experiment:  "fig6",
		Description: "MrBayes total-runtime speedups vs MrBayes-MPI double precision",
		Unit:        "speedup",
	}
	for _, r := range rows {
		states := 4
		if r.Model == "codon" {
			states = 61
		}
		rep.Records = append(rep.Records, Record{
			Implementation: r.Engine, Model: r.Model, Precision: r.Precision,
			States: states, Speedup: r.Speedup,
		})
	}
	return rep
}
