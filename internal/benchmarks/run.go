package benchmarks

import (
	"fmt"
	"time"

	"gobeagle"
	"gobeagle/internal/flops"
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
	t, err := modeledEvalTime(p, rsc, flags, 0, workGroup, reps, false)
	if err != nil {
		return 0, err
	}
	return flops.GFLOPS(p.FlopsPerEval()*float64(reps), t), nil
}

// modeledEvalTime is the one driver behind every modeled device number. It
// creates an instance on rsc through the registry (which picks the kernel
// variant and fissions a CPU-class device down to threads), loads the
// problem, and returns the modeled device time of reps repetitions of the
// partial-likelihoods operations. Real mode first evaluates and verifies
// the log likelihood; dry mode charges the model without running kernel
// bodies, computing only the transition matrices the operations require.
func modeledEvalTime(p *Problem, rsc *gobeagle.Resource, flags gobeagle.Flags, threads, workGroup, reps int, dry bool) (time.Duration, error) {
	cfg := p.InstanceConfig(rsc.ID, flags)
	cfg.Threads, cfg.WorkGroupSize = threads, workGroup
	inst, err := gobeagle.NewInstance(cfg)
	if err != nil {
		return 0, err
	}
	defer inst.Finalize()
	q := inst.DeviceQueue()
	if q == nil {
		return 0, fmt.Errorf("benchmarks: resource %s has no device queue", rsc.Name)
	}
	q.SetDryRun(dry)
	if err := p.Load(inst); err != nil {
		return 0, err
	}
	mats, lens, ops, _ := p.Schedule()
	if dry {
		err = inst.UpdateTransitionMatrices(0, mats, lens)
	} else if err = p.Verify(inst); err != nil {
		err = fmt.Errorf("benchmarks: %s: %w", inst.Implementation(), err)
	}
	if err != nil {
		return 0, err
	}
	q.ResetTimers()
	for r := 0; r < reps; r++ {
		if err := inst.UpdatePartials(ops); err != nil {
			return 0, err
		}
	}
	return q.ModeledTime(), nil
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
