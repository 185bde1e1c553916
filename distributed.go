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

// WorkerStats is a public snapshot of one remote backend's transport
// counters, for monitoring a distributed instance.
type WorkerStats struct {
	// Addr is the worker's TCP address.
	Addr string
	// RPCs counts exchange attempts, including failed ones.
	RPCs int64
	// Retries counts idempotent-read retry attempts.
	Retries int64
	// Redials counts successful reconnect+resume cycles.
	Redials int64
	// PingFailures counts health-check pings that got no answer.
	PingFailures int64
	// BytesSent and BytesReceived total the wire traffic both ways.
	BytesSent     int64
	BytesReceived int64
	// LinkBandwidth is the EWMA payload bandwidth in bytes/sec (0 before any
	// large frame has been measured). It feeds the rebalancer's cross-node
	// migration-cost model.
	LinkBandwidth float64
	// FailedOver reports that the worker became unrecoverable and the
	// client replayed its journal into a local fallback engine; results stay
	// bit-identical but the shard now computes on the coordinator host.
	FailedOver bool
	// DebugAddr is the worker's advertised debug/metrics HTTP address,
	// empty when the worker serves none. Coordinators scrape it to build a
	// federated cluster metrics view.
	DebugAddr string
}

// NewDistributedInstance creates a single instance whose site patterns are
// sharded across local resources and remote beagleworker processes — the
// cluster-scale extension of the multi-device load balancing in §IX. Each
// worker address hosts one backend speaking the remoteimpl wire protocol;
// localResourceIDs (possibly empty) name ResourceList entries computed in
// this process. All Instance methods work transparently; root and site
// log-likelihoods are bit-identical to a single-resource instance.
//
// Shares follow NewMultiDeviceInstance: nil derives them from resource
// throughput, with each worker weighted by its probed core count. With
// FlagRebalance the EWMA rebalancer runs hierarchically — local devices
// rebalance freely while cross-node migrations must amortize their modeled
// transfer cost over the measured link bandwidth.
//
// Every remote backend carries a local fallback: if a worker dies and cannot
// be re-dialed, its client replays the journaled state into an engine built
// on the host resource and the batch completes bit-identically.
func NewDistributedInstance(cfg Config, workers []string, localResourceIDs []int, shares []float64) (*Instance, error) {
	if len(workers) == 0 {
		return nil, errors.New("gobeagle: need at least one worker (use NewMultiDeviceInstance for local-only instances)")
	}
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	resources := ResourceList()
	locals := make([]*Resource, len(localResourceIDs))
	for i, id := range localResourceIDs {
		if id < 0 || id >= len(resources) {
			return nil, errors.New("gobeagle: resource id out of range")
		}
		locals[i] = resources[id]
	}
	host := resources[0] // fallback engines always build on the host CPU

	n := len(locals) + len(workers)
	if shares == nil {
		shares = make([]float64, 0, n)
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
	} else if len(shares) != n {
		return nil, errors.New("gobeagle: shares length must match locals+workers")
	}

	// Local devices share node 0; each worker is its own node, so the
	// rebalancer treats worker boundaries as costed cross-node moves.
	nodes := make([]int, 0, n)
	for range locals {
		nodes = append(nodes, 0)
	}
	for i := range workers {
		nodes = append(nodes, 1+i)
	}

	builders := make([]multiimpl.Builder, 0, n)
	for _, rsc := range locals {
		rsc := rsc
		builders = append(builders, func(sub engine.Config) (engine.Engine, error) {
			return buildEngine(sub, rsc, cfg.Flags)
		})
	}
	for _, addr := range workers {
		addr := addr
		builders = append(builders, func(sub engine.Config) (engine.Engine, error) {
			return remoteimpl.New(sub, remoteimpl.Options{
				Addr: addr,
				Fallback: func(fb engine.Config) (engine.Engine, error) {
					return buildEngine(fb, host, cfg.Flags)
				},
			})
		})
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
	return &Instance{cfg: cfg, eng: eng, rsc: rsc, tr: ecfg.Trace, impl: eng.Name(), strategy: "distributed"}, nil
}

// RemoteStats reports transport counters for each remote backend of a
// distributed instance, in worker order. It returns nil for instances with
// no remote backends.
func (in *Instance) RemoteStats() []WorkerStats {
	me, ok := in.eng.(*multiimpl.Engine)
	if !ok {
		return nil
	}
	var out []WorkerStats
	for _, sub := range me.Backends() {
		re, ok := sub.(*remoteimpl.Engine)
		if !ok {
			continue
		}
		s := re.Stats()
		out = append(out, WorkerStats{
			Addr:          re.Addr(),
			RPCs:          s.RPCs,
			Retries:       s.Retries,
			Redials:       s.Redials,
			PingFailures:  s.PingFailures,
			BytesSent:     s.BytesSent,
			BytesReceived: s.BytesReceived,
			LinkBandwidth: s.LinkBandwidth,
			FailedOver:    s.FailedOver,
			DebugAddr:     re.DebugAddr(),
		})
	}
	return out
}
