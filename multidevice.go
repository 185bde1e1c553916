package gobeagle

import (
	"errors"

	"gobeagle/internal/engine"
	"gobeagle/internal/multiimpl"
)

// NewMultiDeviceInstance creates a single instance whose computation is
// partitioned across several resources — the multi-device load balancing the
// paper's conclusion plans as future work (§IX): "computation can be
// dynamically load balanced across multiple devices from within a single
// library instance".
//
// Site patterns are split into contiguous slices proportional to shares
// (one entry per resource; nil for throughput-derived shares) and each
// slice is computed by an implementation chosen for its resource with the
// given flags, concurrently. All Instance methods work transparently.
func NewMultiDeviceInstance(cfg Config, resourceIDs []int, shares []float64) (*Instance, error) {
	if len(resourceIDs) == 0 {
		return nil, errors.New("gobeagle: need at least one resource")
	}
	resources := ResourceList()
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	selected := make([]*Resource, len(resourceIDs))
	for i, id := range resourceIDs {
		if id < 0 || id >= len(resources) {
			return nil, errors.New("gobeagle: resource id out of range")
		}
		selected[i] = resources[id]
	}
	if shares == nil {
		shares = make([]float64, len(selected))
		for i, r := range selected {
			shares[i] = throughputShare(r, ecfg.SinglePrecision)
		}
	}

	builders := make([]multiimpl.Builder, len(selected))
	for i, rsc := range selected {
		rsc := rsc
		builders[i] = func(sub engine.Config) (engine.Engine, error) {
			return buildEngine(sub, rsc, cfg.Flags)
		}
	}
	eng, err := multiimpl.NewBalanced(ecfg, builders, shares, multiimpl.Options{
		Rebalance: cfg.Flags&FlagRebalance != 0,
		Interval:  cfg.RebalanceInterval,
	})
	if err != nil {
		return nil, err
	}
	return &Instance{cfg: cfg, eng: eng, rsc: selected[0], tr: ecfg.Trace, impl: eng.Name(), strategy: "multi-device"}, nil
}

// throughputShare estimates a resource's relative likelihood throughput at
// the instance's compute precision for default load balancing: the roofline
// peak for devices (derated by the device's DP ratio in double precision —
// a consumer GPU with a 1/32 ratio must not be weighted by its
// single-precision figure), a per-core estimate for the host.
func throughputShare(r *Resource, single bool) float64 {
	if d := r.Device(); d != nil {
		return d.Desc.PeakGFLOPS(single)
	}
	peak := 40 * float64(r.Cores) // host CPU: ≈ per-thread effective SP peak
	if !single {
		peak /= 2 // host FP64 vector width is half the FP32 width
	}
	return peak
}
