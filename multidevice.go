package gobeagle

import (
	"errors"
	"fmt"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/multiimpl"
	"gobeagle/internal/remoteimpl"
)

// probeTimeout bounds the stateless hello used to size a worker's default
// share at creation time.
const probeTimeout = 5 * time.Second

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
	return newPartitionedInstance(cfg, resourceIDs, nil, shares, "multi-device")
}

// newPartitionedInstance builds the instance behind NewMultiDeviceInstance
// and NewDistributedInstance: site patterns split over the local resources
// localIDs, then the workers, in proportion to shares. Nil shares are derived
// from throughput, probing each worker for its core count; given shares
// probe nothing. Local resources share node 0 and each worker is a node of
// its own, so the rebalancer costs a move across a worker boundary and, with
// no workers, is the flat rebalancer.
func newPartitionedInstance(cfg Config, localIDs []int, workers []string, shares []float64, strategy string) (*Instance, error) {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	resources := ResourceList()
	locals := make([]*Resource, len(localIDs))
	for i, id := range localIDs {
		if id < 0 || id >= len(resources) {
			return nil, errors.New("gobeagle: resource id out of range")
		}
		locals[i] = resources[id]
	}
	host := resources[0] // fallback engines always build on the host CPU

	if shares == nil {
		for _, r := range locals {
			shares = append(shares, throughputShare(r, ecfg.SinglePrecision))
		}
		for _, addr := range workers {
			hello, err := remoteimpl.Probe(addr, probeTimeout)
			if err != nil {
				return nil, fmt.Errorf("gobeagle: probing worker %s: %w", addr, err)
			}
			// A worker is a host CPU of its probed core count.
			shares = append(shares, throughputShare(&Resource{Cores: hello.Cores}, ecfg.SinglePrecision))
		}
	}

	var builders []multiimpl.Builder
	var nodes []int
	for _, rsc := range locals {
		builders = append(builders, func(sub engine.Config) (engine.Engine, error) {
			return buildEngine(sub, rsc, cfg.Flags)
		})
		nodes = append(nodes, 0)
	}
	for i, addr := range workers {
		builders = append(builders, func(sub engine.Config) (engine.Engine, error) {
			return remoteimpl.New(sub, remoteimpl.Options{
				Addr: addr,
				Fallback: func(fb engine.Config) (engine.Engine, error) {
					return buildEngine(fb, host, cfg.Flags)
				},
			})
		})
		nodes = append(nodes, 1+i)
	}

	eng, err := multiimpl.NewBalanced(ecfg, builders, shares, multiimpl.Options{
		Rebalance: cfg.Flags&FlagRebalance != 0,
		Interval:  cfg.RebalanceInterval,
		Nodes:     nodes,
	})
	if err != nil {
		return nil, err
	}
	rsc := host
	if len(locals) > 0 {
		rsc = locals[0]
	}
	return &Instance{cfg: cfg, eng: eng, rsc: rsc, tr: ecfg.Trace, impl: eng.Name(), strategy: strategy}, nil
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
