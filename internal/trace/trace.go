// Package trace is the library's one recorder: a span tracer whose spans
// also feed the per-kernel-family aggregates Instance.Stats reports. It is
// the instrumentation counterpart of the paper's evaluation (§V-A), which
// times the partial-likelihoods function and reports effective GFLOPS, and of
// the timelines its Fig. 4–6 and Tables III–V need to explain crossover
// points and multi-device splits.
//
// A Tracer is attached to one engine instance through engine.Config.Trace
// and shared by every layer of that instance (scheduler, worker pool, device
// queues, multi-device barriers). Each instrumented site checks one gate,
// reads the clock once at each end of its interval and records one Span.
// Two gates decide what a span becomes:
//
//   - the span gate (SetEnabled) keeps it in sharded ring buffers, exported
//     as Chrome trace-event JSON loadable in Perfetto or chrome://tracing;
//   - the stats gate (SetStatsEnabled) folds it into its family's
//     aggregate — operation and call counters, total/min/max wall time and a
//     log₂ duration histogram — and keeps scheduler level spans in the same
//     ring for Stats.Levels.
//
// The record path allocates nothing and the disabled fast path is a single
// atomic load. Ring memory is only allocated when a gate is first switched
// on, so the tracer every instance carries costs a few words while off. All
// methods are safe on a nil *Tracer, which behaves as permanently disabled.
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
	// (Arg0 = phase index in its low 32 bits and tasks in the phase above
	// them — see LevelArg — Arg1 = ops in the phase).
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
	// KindEdge is one edge likelihood or edge derivative integration
	// (Arg0 = patterns).
	KindEdge
	// KindRescale is one accelerator rescaling launch — applying stored
	// scale factors or capturing new ones — timed on the host clock
	// (Arg0 = patterns).
	KindRescale
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
	case KindEdge:
		return "edge likelihood"
	case KindRescale:
		return "rescale"
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
	case KindBatch, KindLevel, KindRoot, KindEdge, KindRescale:
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

// LevelArg packs a KindLevel span's Arg0: the phase index in the low 32 bits
// and the phase's concurrent task count above them.
func LevelArg(level, tasks int) int64 { return int64(tasks)<<32 | int64(uint32(level)) }

// levelOf unpacks LevelArg.
func levelOf(arg0 int64) (level, tasks int) { return int(uint32(arg0)), int(arg0 >> 32) }

// Ring geometry: spans are striped across shards by sequence number, so
// concurrent writers (pool workers, multi-device backends) rarely contend on
// one mutex, and each shard keeps its most recent spanCap spans.
const (
	shardCount = 8    // power of two
	spanCap    = 2048 // retained spans per shard
)

// TraceCapacity is the total number of most-recent spans a tracer retains.
const TraceCapacity = shardCount * spanCap

// The gates, one bit each in spanLog.gates. A retained record keeps the
// bits it was recorded under: spans for Snapshot, stats for Stats.Levels.
const (
	gateSpans uint32 = 1 << iota
	gateStats
)

// shard is one stripe of the ring. The mutex only guards the few stores of
// one record; Lock/Unlock do not allocate, keeping the record path zero-
// allocation (verified by the AllocsPerRun guard in this package's tests).
type shard struct {
	mu    sync.Mutex
	count uint64 // spans ever written to this shard
	slots [spanCap]Span
	gates [spanCap]uint8
}

// rings is the lazily allocated span storage (~1 MiB); it is published once
// behind an atomic pointer when a gate is first switched on.
type rings struct {
	shards [shardCount]shard
}

// spanLog is the state a tracer shares with its span-only views: the gates,
// the ring, the sequence and batch counters, the request tag and the epoch.
type spanLog struct {
	gates   atomic.Uint32
	seq     atomic.Uint64
	batches atomic.Uint64
	req     atomic.Uint64
	rings   atomic.Pointer[rings]
	epoch   time.Time
}

// Tracer records spans for one instance. Construct with New; a nil *Tracer
// is valid everywhere and permanently disabled.
type Tracer struct {
	log   *spanLog
	stats *aggregates // nil on a span-only view
}

// New creates a tracer with both gates off. Ring memory is not allocated
// until a gate is switched on.
func New() *Tracer {
	return &Tracer{log: &spanLog{epoch: time.Now()}, stats: newAggregates()}
}

// SpansOnly returns a view of t that records into t's ring, batch counter
// and request tag under t's span gate, but feeds no aggregates. A parent
// engine hands it to its sub-engines: their spans interleave on their own
// lanes while the parent alone accounts each batch once.
func (t *Tracer) SpansOnly() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{log: t.log}
}

// setGate switches one gate, allocating the rings on first use.
func (t *Tracer) setGate(g uint32, on bool) {
	l := t.log
	if on && l.rings.Load() == nil {
		l.rings.CompareAndSwap(nil, &rings{})
	}
	for {
		old := l.gates.Load()
		next := old &^ g
		if on {
			next |= g
		}
		if l.gates.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetEnabled switches span retention on or off. Implementations must treat
// a tracer that is not Recording as "record nothing and take no timestamps".
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.setGate(gateSpans, on)
	}
}

// SetStatsEnabled switches the aggregates on or off. A span-only view has
// none, so on a view this is a no-op.
func (t *Tracer) SetStatsEnabled(on bool) {
	if t != nil && t.stats != nil {
		t.setGate(gateStats, on)
	}
}

// Enabled reports whether spans are retained — one atomic load, no
// allocation.
//
//beagle:noalloc
func (t *Tracer) Enabled() bool {
	return t != nil && t.log.gates.Load()&gateSpans != 0
}

// StatsEnabled reports whether the aggregates are recording.
//
//beagle:noalloc
func (t *Tracer) StatsEnabled() bool {
	return t != nil && t.stats != nil && t.log.gates.Load()&gateStats != 0
}

// Recording reports whether a span recorded now would be kept by either
// gate: the one guard on every instrumented site — one atomic load, no
// allocation.
//
//beagle:noalloc
func (t *Tracer) Recording() bool {
	if t == nil {
		return false
	}
	g := t.log.gates.Load()
	return g&gateSpans != 0 || (g != 0 && t.stats != nil)
}

// Now returns the current host timestamp in nanoseconds since the tracer's
// epoch. Callers take timestamps only after a Recording() check, so the
// disabled path never reads the clock; Now itself is therefore not part of
// the //beagle:noalloc surface (time.Now is banned there).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.log.epoch))
}

// At converts an instant read with time.Now to the tracer's Now timeline,
// for a site that times its interval with the time package anyway.
func (t *Tracer) At(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(tm.Sub(t.log.epoch))
}

// Begin opens an instrumented interval: one gate check, and one clock read
// only when recording. Pass start to End when on.
func (t *Tracer) Begin() (start int64, on bool) {
	if !t.Recording() {
		return 0, false
	}
	return t.Now(), true
}

// End closes an interval opened by Begin: one clock read, one Record of s
// spanning [start, now).
func (t *Tracer) End(s Span, start int64) {
	s.Start, s.Dur = start, t.Now()-start
	t.Record(s)
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
	return t.log.epoch.UnixNano()
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
	t.log.req.Store(id)
}

// CurrentRequest returns the request identity set by SetRequest, 0 if none.
//
//beagle:noalloc
func (t *Tracer) CurrentRequest() uint64 {
	if t == nil {
		return 0
	}
	return t.log.req.Load()
}

// NextBatch returns a fresh 1-based batch identifier for span grouping.
//
//beagle:noalloc
func (t *Tracer) NextBatch() uint64 {
	if t == nil {
		return 0
	}
	return t.log.batches.Add(1)
}

// Record files one span: into its family's aggregate while the stats gate
// is on (level spans into the ring, for Stats.Levels), into the ring while
// the span gate is on. Safe for concurrent use from any goroutine; the hot
// path performs no allocation and no time queries — callers supply
// Start/Dur from Now() or from the modeled device clock.
//
//beagle:noalloc
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	g := t.log.gates.Load()
	keep := g & gateSpans
	if g&gateStats != 0 && t.stats != nil {
		if s.Kind == KindLevel {
			keep |= gateStats
		} else {
			t.stats.record(&s)
		}
	}
	r := t.log.rings.Load()
	if keep == 0 || r == nil {
		return
	}
	if s.Req == 0 {
		s.Req = t.log.req.Load()
	}
	seq := t.log.seq.Add(1) - 1
	sh := &r.shards[seq&(shardCount-1)]
	sh.mu.Lock()
	s.Seq = seq
	i := sh.count % spanCap
	sh.slots[i], sh.gates[i] = s, uint8(keep)
	sh.count++
	sh.mu.Unlock()
}

// retained returns the retained spans recorded under gate g that keep
// accepts, in record order (ascending Seq). Each shard is locked briefly in
// turn, so a snapshot taken mid-batch sees a consistent prefix per shard.
func (t *Tracer) retained(g uint32, keep func(*Span) bool) []Span {
	if t == nil {
		return nil
	}
	r := t.log.rings.Load()
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := min(sh.count, spanCap)
		for j := range n {
			if uint32(sh.gates[j])&g != 0 && keep(&sh.slots[j]) {
				out = append(out, sh.slots[j])
			}
		}
		sh.mu.Unlock()
	}
	// The shards stripe sequences round-robin, so the concatenation is far
	// from sorted and needs a real sort.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Snapshot returns the retained spans in record order (ascending Seq). Safe
// to call concurrently with recording.
func (t *Tracer) Snapshot() []Span {
	return t.retained(gateSpans, func(*Span) bool { return true })
}

// Reset discards all retained spans — Stats.Levels' level spans too — and
// restarts the sequence and batch counters; the gates, the aggregates and
// the epoch are unchanged.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	if r := t.log.rings.Load(); r != nil {
		for i := range r.shards {
			sh := &r.shards[i]
			sh.mu.Lock()
			sh.count = 0
			sh.mu.Unlock()
		}
	}
	t.log.seq.Store(0)
	t.log.batches.Store(0)
	if t.stats != nil {
		t.stats.levelsFrom.Store(0)
	}
}
