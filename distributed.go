package gobeagle

import (
	"errors"

	"gobeagle/internal/multiimpl"
	"gobeagle/internal/remoteimpl"
)

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
	return newPartitionedInstance(cfg, localResourceIDs, workers, shares, "distributed")
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
