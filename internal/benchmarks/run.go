package benchmarks

import (
	"fmt"
	"time"

	"gobeagle"
	"gobeagle/internal/accelimpl"
	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
)

// DeviceEval measures one problem on an accelerator resource: it really
// executes the full evaluation (verifying the log likelihood), then times
// `reps` repetitions of the partial-likelihoods operations on the modeled
// device clock and returns the modeled throughput in effective GFLOPS.
func DeviceEval(p *Problem, resourceName, framework string, flags gobeagle.Flags, workGroup, reps int) (float64, error) {
	rsc, err := gobeagle.FindResource(resourceName, framework)
	if err != nil {
		return 0, err
	}
	cfg := p.InstanceConfig(rsc.ID, flags)
	cfg.WorkGroupSize = workGroup
	inst, err := gobeagle.NewInstance(cfg)
	if err != nil {
		return 0, err
	}
	defer inst.Finalize()
	if err := p.Load(inst); err != nil {
		return 0, err
	}
	if err := p.Verify(inst); err != nil {
		return 0, fmt.Errorf("benchmarks: %s: %w", inst.Implementation(), err)
	}
	q := inst.DeviceQueue()
	if q == nil {
		return 0, fmt.Errorf("benchmarks: resource %s has no device queue", resourceName)
	}
	_, _, ops, _ := p.Schedule()
	q.ResetTimers()
	for r := 0; r < reps; r++ {
		if err := inst.UpdatePartials(ops); err != nil {
			return 0, err
		}
	}
	elapsed := q.ModeledTime()
	return flops.GFLOPS(p.FlopsPerEval()*float64(reps), elapsed), nil
}

// accelModeledThroughput builds an accelerator engine directly on an
// arbitrary device handle (e.g. a fissioned sub-device that is not in the
// resource list), executes one full evaluation for real, and returns the
// modeled throughput.
func accelModeledThroughput(p *Problem, dev *device.Device, flags gobeagle.Flags) (float64, error) {
	t, err := accelModeledEvalTime(p, dev, flags, false)
	if err != nil {
		return 0, err
	}
	return flops.GFLOPS(p.FlopsPerEval(), t), nil
}

// accelModeledEvalTime returns the modeled duration of one full evaluation
// of the partials operations on an arbitrary device handle. With dryRun the
// kernel bodies are skipped (model-only timing; no correctness check).
func accelModeledEvalTime(p *Problem, dev *device.Device, flags gobeagle.Flags, dryRun bool) (time.Duration, error) {
	variant := accelimpl.OpenCLX86
	switch {
	case dev.Framework == device.CUDA:
		variant = accelimpl.CUDA
	case dev.Desc.Kind == device.KindGPU:
		variant = accelimpl.OpenCLGPU
	}
	cfg := engine.Config{
		TipCount:        p.Tree.TipCount,
		PartialsBuffers: p.Tree.NodeCount(),
		MatrixBuffers:   p.Tree.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    0,
		Dims: kernels.Dims{
			StateCount:    p.Dims.StateCount,
			PatternCount:  p.Dims.PatternCount,
			CategoryCount: p.Dims.CategoryCount,
		},
		SinglePrecision: flags&gobeagle.FlagPrecisionSingle != 0,
	}
	eng, err := accelimpl.New(cfg, variant, dev)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	ed, err := p.Model.Eigen()
	if err != nil {
		return 0, err
	}
	steps := []error{
		eng.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		eng.SetCategoryRates(p.Rates.Rates),
		eng.SetCategoryWeights(p.Rates.Weights),
		eng.SetStateFrequencies(p.Model.Frequencies),
		eng.SetPatternWeights(p.Patterns.Weights),
	}
	for _, err := range steps {
		if err != nil {
			return 0, err
		}
	}
	for i := 0; i < p.Tree.TipCount; i++ {
		if err := eng.SetTipStates(i, p.Patterns.TipStates(i)); err != nil {
			return 0, err
		}
	}
	sched := p.Tree.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := eng.UpdateTransitionMatrices(0, mats, lens); err != nil {
		return 0, err
	}
	type queueHolder interface{ Queue() *device.Queue }
	q := eng.(queueHolder).Queue()
	q.SetDryRun(dryRun)
	q.ResetTimers()
	if err := eng.UpdatePartials(p.EngineOps()); err != nil {
		return 0, err
	}
	elapsed := q.ModeledTime() // partials kernels only
	if !dryRun {
		lnL, err := eng.CalculateRootLogLikelihoods(sched.Root, engine.None)
		if err != nil {
			return 0, err
		}
		if !(lnL < 0) {
			return 0, fmt.Errorf("benchmarks: suspicious log likelihood %v", lnL)
		}
	}
	return elapsed, nil
}

// HostEval really executes one problem on a host-CPU implementation and
// verifies its log likelihood. The per-table experiments report the CPUModel
// numbers — wall-clock throughput is bench/mark's job — and use this only to
// check that the configuration they model executes correctly.
func HostEval(p *Problem, flags gobeagle.Flags) error {
	inst, err := gobeagle.NewInstance(p.InstanceConfig(0, flags))
	if err != nil {
		return err
	}
	defer inst.Finalize()
	if err := p.Load(inst); err != nil {
		return err
	}
	if err := p.Verify(inst); err != nil {
		return fmt.Errorf("benchmarks: %s: %w", inst.Implementation(), err)
	}
	return nil
}
