package gobeagle_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// These run the real implementations end-to-end on the build host and
// report measured wall-clock throughput as the "gflops" metric, plus the
// modeled-hardware throughput ("model-gflops") where the experiment is
// defined on the paper's devices. The cmd/beaglebench tool regenerates the
// full tables/figures; these benches provide the measured counterpart:
//
//	go test -bench=. -benchmem
import (
	"math/rand"
	"strconv"
	"testing"

	"gobeagle"
	"gobeagle/internal/benchmarks"
	"gobeagle/internal/mcmc"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// benchEval measures repeated full evaluations of the partial-likelihoods
// operations through the public API, on threads CPU threads or device
// compute units (0 = all) with an accelerator work-group size (0 = default).
func benchEval(b *testing.B, p *benchmarks.Problem, resourceID int, flags gobeagle.Flags, threads, workGroup int) {
	b.Helper()
	cfg := p.InstanceConfig(resourceID, flags)
	cfg.Threads, cfg.WorkGroupSize = threads, workGroup
	inst, err := gobeagle.NewInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Finalize()
	if err := p.Load(inst); err != nil {
		b.Fatal(err)
	}
	mats, lens, ops, root := p.Schedule()
	if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		b.Fatal(err)
	}
	if q := inst.DeviceQueue(); q != nil {
		q.ResetTimers()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.UpdatePartials(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perEval := p.FlopsPerEval()
	b.ReportMetric(perEval*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
	if q := inst.DeviceQueue(); q != nil && q.ModeledTime() > 0 {
		b.ReportMetric(perEval*float64(b.N)/q.ModeledTime().Seconds()/1e9, "model-gflops")
	}
	if _, err := inst.CalculateRootLogLikelihoods(root, gobeagle.None); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable3 measures the CPU strategies of Table III (single
// precision, nucleotide model, 10,000 patterns, 16 tips).
func BenchmarkTable3(b *testing.B) {
	p, err := benchmarks.NewProblem(3, 16, 4, 10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		flags gobeagle.Flags
	}{
		{"serial", gobeagle.FlagVectorNone},
		{"futures", gobeagle.FlagThreadingFutures},
		{"threadcreate", gobeagle.FlagThreadingThreadCreate},
		{"threadpool", gobeagle.FlagThreadingThreadPool},
		{"hybrid", gobeagle.FlagThreadingThreadPoolHybrid},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchEval(b, p, 0, c.flags|gobeagle.FlagPrecisionSingle, 0, 0)
		})
	}
}

// BenchmarkTable3Hybrid measures the small-pattern regime of the Table III
// extension: 64 tips at 128–512 patterns, where the plain pattern-chunking
// strategies fall back to serial but the hybrid op×pattern scheduler keeps
// the pool busy on independent operations.
func BenchmarkTable3Hybrid(b *testing.B) {
	for _, patterns := range []int{128, 256, 512} {
		p, err := benchmarks.NewProblem(int64(patterns), 64, 4, patterns, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			flags gobeagle.Flags
		}{
			{"threadpool", gobeagle.FlagThreadingThreadPool},
			{"hybrid", gobeagle.FlagThreadingThreadPoolHybrid},
		} {
			b.Run(benchName(c.name+"-p", patterns), func(b *testing.B) {
				benchEval(b, p, 0, c.flags|gobeagle.FlagPrecisionSingle, 0, 0)
			})
		}
	}
}

// BenchmarkTable4 measures the OpenCL-GPU kernels with and without FMA on
// the simulated Radeon R9 Nano (Table IV; the model-gflops metric carries
// the FMA effect).
func BenchmarkTable4(b *testing.B) {
	p, err := benchmarks.NewProblem(4, 16, 4, 10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	rsc, err := gobeagle.FindResource("Radeon R9 Nano", "OpenCL")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		flags gobeagle.Flags
	}{
		{"double-fma", 0},
		{"double-nofma", gobeagle.FlagDisableFMA},
		{"single-fma", gobeagle.FlagPrecisionSingle},
		{"single-nofma", gobeagle.FlagPrecisionSingle | gobeagle.FlagDisableFMA},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchEval(b, p, rsc.ID, c.flags, 0, 0)
		})
	}
}

// BenchmarkTable5 measures the OpenCL-x86 work-group size sweep plus the
// GPU-style-kernel reference on the CPU-class OpenCL device (Table V).
func BenchmarkTable5(b *testing.B) {
	p, err := benchmarks.NewProblem(5, 16, 4, 10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	rsc, err := gobeagle.FindResource("Xeon E5-2680v4 x2", "OpenCL")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gpu-style-wg64", func(b *testing.B) {
		benchEval(b, p, rsc.ID, gobeagle.FlagPrecisionSingle|gobeagle.FlagKernelGPU, 0, 64)
	})
	for _, wg := range []int{64, 128, 256, 512, 1024} {
		b.Run(benchName("x86-wg", wg), func(b *testing.B) {
			benchEval(b, p, rsc.ID, gobeagle.FlagPrecisionSingle, 0, wg)
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// BenchmarkFig4 measures the kernel-throughput sweep of Fig. 4 at three
// pattern counts per model family, across the implementation classes.
func BenchmarkFig4(b *testing.B) {
	for _, family := range []struct {
		name     string
		states   int
		patterns []int
	}{
		{"nucleotide", 4, []int{1000, 10000}},
		{"codon", 61, []int{316, 1000}},
	} {
		for _, pat := range family.patterns {
			p, err := benchmarks.NewProblem(int64(pat), 16, family.states, pat, 4)
			if err != nil {
				b.Fatal(err)
			}
			for _, impl := range []struct {
				name      string
				resource  string
				framework string
				flags     gobeagle.Flags
			}{
				{"cuda-p5000", "Quadro P5000", "CUDA", gobeagle.FlagPrecisionSingle},
				{"opencl-r9nano", "Radeon R9 Nano", "OpenCL", gobeagle.FlagPrecisionSingle},
				{"opencl-x86", "Xeon E5-2680v4 x2", "OpenCL", gobeagle.FlagPrecisionSingle},
				{"cpu-threadpool", "", "", gobeagle.FlagPrecisionSingle | gobeagle.FlagThreadingThreadPool},
				{"cpu-serial", "", "", gobeagle.FlagPrecisionSingle | gobeagle.FlagVectorNone},
			} {
				id := 0
				if impl.resource != "" {
					rsc, err := gobeagle.FindResource(impl.resource, impl.framework)
					if err != nil {
						b.Fatal(err)
					}
					id = rsc.ID
				}
				b.Run(family.name+"/"+benchName(impl.name, pat), func(b *testing.B) {
					benchEval(b, p, id, impl.flags, 0, 0)
				})
			}
		}
	}
}

// BenchmarkFig5 measures the multicore-scaling configurations of Fig. 5:
// the thread-pool model and OpenCL-x86 under restricted thread counts
// (device fission).
func BenchmarkFig5(b *testing.B) {
	p, err := benchmarks.NewProblem(6, 16, 4, 10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	rsc, err := gobeagle.FindResource("Xeon E5-2680v4 x2", "OpenCL")
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		b.Run(benchName("threadpool-t", threads), func(b *testing.B) {
			benchEval(b, p, 0, gobeagle.FlagPrecisionSingle|gobeagle.FlagThreadingThreadPool, threads, 0)
		})
		b.Run(benchName("opencl-x86-fission-t", threads), func(b *testing.B) {
			benchEval(b, p, rsc.ID, gobeagle.FlagPrecisionSingle, threads, 0)
		})
	}
}

// BenchmarkFig6 measures whole MC3 generations — the application-level
// workload of Fig. 6 — under the native (MrBayes-style) engine and the
// library-backed engines.
func BenchmarkFig6(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tr, err := tree.Random(rng, 15, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	model, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		b.Fatal(err)
	}
	rates := substmodel.SingleRate()
	align, err := seqgen.Simulate(rng, tr, model, rates, 4000)
	if err != nil {
		b.Fatal(err)
	}
	ps := seqgen.CompressPatterns(align)

	makeEngines := func(b *testing.B, build func() (mcmc.LikelihoodEngine, error)) []mcmc.LikelihoodEngine {
		engines := make([]mcmc.LikelihoodEngine, 2)
		for i := range engines {
			e, err := build()
			if err != nil {
				b.Fatal(err)
			}
			engines[i] = e
		}
		return engines
	}
	runMC3 := func(b *testing.B, engines []mcmc.LikelihoodEngine) {
		defer func() {
			for _, e := range engines {
				e.Close()
			}
		}()
		b.ResetTimer()
		if _, err := mcmc.Run(mcmc.Config{
			Tree:        tr,
			Engines:     engines,
			Generations: b.N,
			HeatLambda:  0.1,
			Seed:        1,
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "gen/s")
	}

	b.Run("native-double", func(b *testing.B) {
		runMC3(b, makeEngines(b, func() (mcmc.LikelihoodEngine, error) {
			return mcmc.NewNativeEngine(model, rates, ps, false)
		}))
	})
	b.Run("native-sse-single", func(b *testing.B) {
		runMC3(b, makeEngines(b, func() (mcmc.LikelihoodEngine, error) {
			return mcmc.NewNativeEngine(model, rates, ps, true)
		}))
	})
	b.Run("beagle-threadpool-double", func(b *testing.B) {
		runMC3(b, makeEngines(b, func() (mcmc.LikelihoodEngine, error) {
			return mcmc.NewBeagleEngine(model, rates, ps, tr, 0, gobeagle.FlagThreadingThreadPool)
		}))
	})
	b.Run("beagle-sse-single", func(b *testing.B) {
		runMC3(b, makeEngines(b, func() (mcmc.LikelihoodEngine, error) {
			return mcmc.NewBeagleEngine(model, rates, ps, tr, 0, gobeagle.FlagVectorSSE|gobeagle.FlagPrecisionSingle)
		}))
	})
}
