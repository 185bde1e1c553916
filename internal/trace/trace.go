// Package trace is the library's span tracer: the timeline counterpart of
// the aggregate counters in internal/telemetry. Where telemetry answers "how
// much time did each kernel family take", the tracer answers "what did the
// scheduler, the workers, the modeled devices and the multi-device engine
// actually do, and when" — the view the paper's evaluation (Fig. 4–6,
// Tables III–V) needs to explain crossover points and multi-device splits.
//
// A Tracer is attached to one engine instance through engine.Config.Trace
// and shared by every layer of that instance (scheduler, worker pool, device
// queues, multi-device barriers). Spans are fixed-size values written into
// sharded ring buffers; the record path allocates nothing and the disabled
// fast path is a single atomic load, exactly like the telemetry collector.
// Ring memory is only allocated when tracing is first enabled, so the tracer
// every instance carries costs a few words while off.
//
// Snapshots merge the shards into one sequence-ordered span list, and
// WriteJSON renders that list as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing. All methods are safe on a nil *Tracer, which
// behaves as permanently disabled.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a span represents; it determines the layer (process
// track) the span is rendered into.
type Kind uint8

// Span kinds, grouped by layer.
const (
	// KindBatch is one UpdatePartials batch on one engine (Arg0 = executed
	// ops, Arg1 = ops skipped by incremental re-evaluation; a fully clean
	// resubmission appears as a skip span with Arg0 = 0).
	KindBatch Kind = iota
	// KindLevel is one phase of a threaded CPU strategy: a dependency level
	// under futures, the whole batch under the pattern-slab strategies
	// (Arg0 = phase index, Arg1 = ops in the phase).
	KindLevel
	// KindRoot is one root-likelihood integration.
	KindRoot
	// KindTask is one pattern slab of a batch on a pool worker
	// (Lane = worker index, Arg0 = patterns in the slab).
	KindTask
	// KindKernel is one device kernel launch on the modeled device clock
	// (Arg0 = global work-items).
	KindKernel
	// KindTransfer is one host↔device copy on the modeled device clock
	// (Arg0 = bytes moved).
	KindTransfer
	// KindBarrier is the multi-device end-of-batch barrier spanning all
	// backends (Arg0 = backend count).
	KindBarrier
	// KindBackend is one backend's share of a multi-device batch
	// (Lane = backend index, Arg0 = patterns in the backend's slice).
	KindBackend
	// KindRebalance is one adaptive-rebalance decision that repartitioned
	// the patterns (Arg0 = patterns migrated).
	KindRebalance
	// KindMigrate is one boundary pattern-span migration between neighboring
	// backends (Lane = left backend of the boundary, Arg0 = patterns moved).
	KindMigrate
	// KindMatrices is one transition-matrix update batch (Arg0 = matrices).
	KindMatrices
	// KindDerivatives is one derivative-matrix update batch (Arg0 = matrices).
	KindDerivatives
	// KindServeBatch is one micro-batch executed by the serving layer's
	// warm-instance calculator (Arg0 = requests coalesced, Arg1 = slots in
	// use after the batch).
	KindServeBatch
	// KindServeWait is the queueing delay of one served request from
	// admission to the start of its batch (Lane = slot index).
	KindServeWait
	// KindRPC is one remote-engine call round trip on the wire: request
	// serialization, network transfer both ways and the worker-side
	// execution (Lane = the remote backend's trace lane, Arg0 = the wire
	// operation code, Arg1 = bytes moved in both directions).
	KindRPC
	// KindServeRequest is the full lifetime of one served request from
	// admission to response (Arg0 = HTTP status, Arg1 = requests coalesced
	// into its batch; Batch links it to the serve batch it merged into).
	KindServeRequest
	// KindServeCompile is the request-compilation phase: JSON → validated
	// tree, compressed patterns and instance geometry (Arg0 = site patterns
	// after compression).
	KindServeCompile
	// KindRemoteApply is one request executed on a worker process, recorded
	// by the worker's own session tracer; the gap between the client's
	// KindRPC span edges and this span is the wire + codec time
	// (Arg0 = the wire operation code).
	KindRemoteApply
	numKinds
)

// String returns the span name used in trace exports.
func (k Kind) String() string {
	switch k {
	case KindBatch:
		return "partials batch"
	case KindLevel:
		return "dependency level"
	case KindRoot:
		return "root likelihood"
	case KindTask:
		return "worker task"
	case KindKernel:
		return "kernel launch"
	case KindTransfer:
		return "transfer"
	case KindBarrier:
		return "batch barrier"
	case KindBackend:
		return "backend batch"
	case KindRebalance:
		return "rebalance"
	case KindMigrate:
		return "migrate patterns"
	case KindMatrices:
		return "transition matrices"
	case KindDerivatives:
		return "derivative matrices"
	case KindServeBatch:
		return "serve batch"
	case KindServeWait:
		return "serve wait"
	case KindRPC:
		return "rpc"
	case KindServeRequest:
		return "serve request"
	case KindServeCompile:
		return "serve compile"
	case KindRemoteApply:
		return "worker apply"
	default:
		return "unknown"
	}
}

// Layer is the process track a span is rendered into.
type Layer uint8

// Layers, in rendering order.
const (
	LayerScheduler Layer = iota
	LayerWorker
	LayerDevice
	LayerMulti
	LayerStorage
	LayerServe
	LayerNet
	numLayers
)

// String names the layer; these are the process names trace consumers (and
// cmd/beagletrace -require-layers) see.
func (l Layer) String() string {
	switch l {
	case LayerScheduler:
		return "scheduler"
	case LayerWorker:
		return "workers"
	case LayerDevice:
		return "device (modeled clock)"
	case LayerMulti:
		return "multi-device"
	case LayerStorage:
		return "storage"
	case LayerServe:
		return "serve"
	case LayerNet:
		return "network"
	default:
		return "unknown"
	}
}

// Layer maps a span kind to its process track.
func (k Kind) Layer() Layer {
	switch k {
	case KindBatch, KindLevel, KindRoot:
		return LayerScheduler
	case KindTask:
		return LayerWorker
	case KindKernel, KindTransfer:
		return LayerDevice
	case KindBarrier, KindBackend, KindRebalance, KindMigrate:
		return LayerMulti
	case KindServeBatch, KindServeWait, KindServeRequest, KindServeCompile:
		return LayerServe
	case KindRPC, KindRemoteApply:
		return LayerNet
	default:
		return LayerStorage
	}
}

// Span is one recorded interval. Start and Dur are nanoseconds; for host
// spans Start is measured from the tracer's epoch (creation time), for
// device spans (KindKernel, KindTransfer) it is the modeled device clock,
// which starts at zero and advances by modeled kernel and transfer charges.
// Lane disambiguates parallel tracks within a layer: the worker index for
// tasks, the backend index for multi-device spans and device queues, -1 when
// inapplicable. Arg0/Arg1 carry kind-specific magnitudes (see the Kind
// constants). Req is the served request the span belongs to (0 when outside
// any request); Record fills it from the tracer's current request when the
// caller leaves it zero, which is how engine-internal layers inherit the
// request identity the serve layer set without being passed it explicitly.
// Seq is the global record order, assigned by the tracer.
type Span struct {
	Kind  Kind
	Lane  int32
	Batch uint64
	Start int64
	Dur   int64
	Arg0  int64
	Arg1  int64
	Req   uint64
	Seq   uint64
}

// Ring geometry: spans are striped across shards by sequence number, so
// concurrent writers (pool workers, multi-device backends) rarely contend on
// one mutex, and each shard keeps its most recent spanCap spans.
const (
	shardCount = 8    // power of two
	spanCap    = 2048 // retained spans per shard
)

// TraceCapacity is the total number of most-recent spans a tracer retains.
const TraceCapacity = shardCount * spanCap

// shard is one stripe of the ring. The mutex only guards the few stores of
// one record; Lock/Unlock do not allocate, keeping the record path zero-
// allocation (verified by the AllocsPerRun guard in this package's tests).
type shard struct {
	mu    sync.Mutex
	count uint64 // spans ever written to this shard
	slots [spanCap]Span
}

// rings is the lazily allocated span storage (~1 MiB); it is published once
// behind an atomic pointer when tracing is first enabled.
type rings struct {
	shards [shardCount]shard
}

// Tracer records spans for one instance. The zero value is usable and
// disabled; a nil *Tracer is valid everywhere and permanently disabled.
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	batches atomic.Uint64
	req     atomic.Uint64
	rings   atomic.Pointer[rings]
	epoch   time.Time
}

// New creates a disabled tracer. Ring memory is not allocated until
// SetEnabled(true).
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetEnabled switches recording on or off, allocating the span rings on
// first enable. Implementations must treat a false value as "record nothing
// and take no timestamps".
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if on && t.rings.Load() == nil {
		t.rings.CompareAndSwap(nil, &rings{})
	}
	t.enabled.Store(on)
}

// Enabled reports whether the tracer is recording: the guard on every
// instrumented hot path — one atomic load, no allocation.
//
//beagle:noalloc
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// Now returns the current host timestamp in nanoseconds since the tracer's
// epoch. Callers take timestamps only after an Enabled() check, so the
// disabled path never reads the clock; Now itself is therefore not part of
// the //beagle:noalloc surface (time.Now is banned there).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// EpochNanos returns the wall-clock instant (UnixNano) the tracer's Start
// timeline is measured from. Exports that merge spans from tracers with
// different epochs (the serve layer's tracer and each pooled instance's
// tracer, or a drained worker snapshot) rebase Start by the epoch delta so
// all spans share one timeline.
func (t *Tracer) EpochNanos() int64 {
	if t == nil {
		return 0
	}
	return t.epoch.UnixNano()
}

// SetRequest sets the request identity that Record stamps onto spans whose
// Req field the caller left zero. The serve layer sets it around an engine
// submission (and a worker session sets it from the wire frame) so every
// scheduler, kernel and storage span records which served request it worked
// for. Zero clears the context. Nil-safe, one atomic store.
//
//beagle:noalloc
func (t *Tracer) SetRequest(id uint64) {
	if t == nil {
		return
	}
	t.req.Store(id)
}

// CurrentRequest returns the request identity set by SetRequest, 0 if none.
//
//beagle:noalloc
func (t *Tracer) CurrentRequest() uint64 {
	if t == nil {
		return 0
	}
	return t.req.Load()
}

// NextBatch returns a fresh 1-based batch identifier for span grouping.
//
//beagle:noalloc
func (t *Tracer) NextBatch() uint64 {
	if t == nil {
		return 0
	}
	return t.batches.Add(1)
}

// Record appends one span. Safe for concurrent use from any goroutine; the
// hot path performs no allocation and no time queries — callers supply
// Start/Dur from Now() or from the modeled device clock.
//
//beagle:noalloc
func (t *Tracer) Record(s Span) {
	if t == nil || !t.enabled.Load() {
		return
	}
	r := t.rings.Load()
	if r == nil {
		return
	}
	if s.Req == 0 {
		s.Req = t.req.Load()
	}
	seq := t.seq.Add(1) - 1
	sh := &r.shards[seq&(shardCount-1)]
	sh.mu.Lock()
	s.Seq = seq
	sh.slots[sh.count%spanCap] = s
	sh.count++
	sh.mu.Unlock()
}

// Snapshot returns the retained spans in record order (ascending Seq). Safe
// to call concurrently with recording; each shard is locked briefly in turn,
// so a snapshot taken mid-batch sees a consistent prefix per shard.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	r := t.rings.Load()
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := sh.count
		if n > spanCap {
			n = spanCap
		}
		out = append(out, sh.slots[:n]...)
		sh.mu.Unlock()
	}
	sortSpans(out)
	return out
}

// sortSpans orders by sequence number; the shards stripe sequences round-
// robin, so the concatenation is far from sorted and needs a real sort.
func sortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool { return s[i].Seq < s[j].Seq })
}

// Reset discards all retained spans and restarts the sequence and batch
// counters; the enabled switch and epoch are unchanged.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	r := t.rings.Load()
	if r != nil {
		for i := range r.shards {
			sh := &r.shards[i]
			sh.mu.Lock()
			sh.count = 0
			sh.mu.Unlock()
		}
	}
	t.seq.Store(0)
	t.batches.Store(0)
}
