package multiimpl

import (
	"errors"
	"fmt"

	"gobeagle/internal/engine"
	"gobeagle/internal/trace"
)

// This file implements the adaptive rebalancer: the step from the paper's
// statically partitioned multi-device execution to the dynamically load
// balanced execution its conclusion (§IX) calls for. The multi-device engine
// times every backend's share of each UpdatePartials batch and folds the
// measurements into per-backend EWMA throughput estimates
// (pattern-operations per second). Every Interval batches it derives the
// throughput-proportional target partition; when the predicted batch-time
// speedup of moving to that partition clears the hysteresis Threshold, it
// migrates the boundary pattern spans between neighboring sub-engines via
// the engines' PatternMigrator capability and adopts the new partition. The
// batch boundary — under the engine mutex, with every backend quiescent — is
// the safe barrier the migration requires.
//
// With Options.Nodes set the rebalancer becomes hierarchical, for
// coordinators whose backends span machines (remote engines beside local
// devices). Moving a pattern between two local devices costs a memcpy;
// moving it across nodes serializes every buffer's slice over a network
// link, so the two must not be weighed alike. Each decision therefore
// computes two candidate targets: the intra-node target, which
// redistributes each node's current span among that node's own backends
// (node boundaries fixed, migrations stay on-host), and the global target,
// which also moves patterns across node boundaries. The global target is
// adopted only when it beats the intra-node one AND its predicted per-batch
// saving amortizes the estimated cross-node transfer time within
// CrossNodeHorizon batches — transfer time charged from the remote
// backends' measured link bandwidth (LinkReporter). Otherwise the decision
// falls back to the intra-node target, so local devices keep rebalancing
// freely while patterns cross the network only when the imbalance is
// persistent enough to pay for the trip.

// Defaults for Options fields left zero.
const (
	// DefaultInterval is the number of UpdatePartials batches between
	// rebalance checks.
	DefaultInterval = 10
	// DefaultThreshold is the predicted batch-time speedup a repartition
	// must clear before any patterns move (hysteresis: small drifts are
	// never worth the migration traffic).
	DefaultThreshold = 1.05
	// DefaultAlpha is the EWMA smoothing factor for throughput estimates.
	DefaultAlpha = 0.3
	// DefaultCrossNodeHorizon is the number of future batches over which a
	// cross-node migration's transfer cost must amortize.
	DefaultCrossNodeHorizon = 50

	// maxEvents bounds the retained rebalance event history.
	maxEvents = 32

	// assumedLinkBandwidth (bytes/sec) prices cross-node moves before any
	// payload-sized transfer has measured the real link (~fast ethernet,
	// deliberately conservative so unmeasured links discourage migration).
	assumedLinkBandwidth = 100e6
)

// LinkReporter is implemented by backends that measure their transport
// bandwidth (remote engines); the rebalancer charges cross-node migration
// bytes against it.
type LinkReporter interface {
	// LinkBandwidth returns the measured payload bandwidth in bytes/sec;
	// 0 means unmeasured.
	LinkBandwidth() float64
}

// Options configures adaptive rebalancing for NewBalanced.
type Options struct {
	// Rebalance enables measurement and repartitioning. Off, the engine
	// behaves exactly like the statically partitioned one.
	Rebalance bool
	// Interval is the number of batches between rebalance checks
	// (default DefaultInterval).
	Interval int
	// Threshold is the predicted speedup required before repartitioning
	// (default DefaultThreshold).
	Threshold float64
	// Alpha is the EWMA smoothing factor in (0, 1] (default DefaultAlpha).
	Alpha float64
	// Nodes assigns each backend to a node (machine). Backends of one node
	// must be contiguous and ids non-decreasing, matching the contiguous
	// pattern partition. Nil means all backends share one node, which makes
	// the hierarchical rebalancer behave exactly like the flat one.
	Nodes []int
	// CrossNodeHorizon is the number of future batches over which a
	// cross-node migration must pay for its transfer time (default
	// DefaultCrossNodeHorizon).
	CrossNodeHorizon int
}

// validateNodes checks a Nodes assignment against the backend count.
func validateNodes(nodes []int, n int) error {
	if nodes == nil {
		return nil
	}
	if len(nodes) != n {
		return fmt.Errorf("multiimpl: %d node ids for %d backends", len(nodes), n)
	}
	for i, id := range nodes {
		if id < 0 {
			return fmt.Errorf("multiimpl: negative node id %d", id)
		}
		if i > 0 && id < nodes[i-1] {
			return errors.New("multiimpl: node ids must be non-decreasing (node groups contiguous)")
		}
	}
	return nil
}

// RebalanceEvent records one executed repartition.
type RebalanceEvent struct {
	// Batch is the 1-based UpdatePartials batch after which the
	// repartition ran.
	Batch int
	// OldHi and NewHi are the partition boundaries before and after.
	OldHi, NewHi []int
	// Migrated is the total number of patterns that moved.
	Migrated int
	// PredictedSpeedup is the modeled batch-time ratio that justified the
	// move.
	PredictedSpeedup float64
	// CrossNode reports whether the repartition moved patterns across node
	// boundaries (hierarchical mode only).
	CrossNode bool
	// CostSeconds is the estimated cross-node transfer time charged when
	// CrossNode is set.
	CostSeconds float64
}

// RebalanceStats is a snapshot of the rebalancer's state for Stats.
type RebalanceStats struct {
	// Batches is the number of UpdatePartials batches observed.
	Batches int
	// Rebalances is the number of executed repartitions.
	Rebalances int
	// CrossNodeRebalances counts the repartitions that moved patterns
	// across node boundaries.
	CrossNodeRebalances int
	// PatternsMigrated is the total number of patterns moved across all
	// repartitions.
	PatternsMigrated int
	// Throughput is the current EWMA estimate per backend, in
	// pattern-operations per second.
	Throughput []float64
	// Lo and Hi are the current partition boundaries, taken atomically with
	// the rest of the snapshot.
	Lo, Hi []int
	// Events is the retained repartition history (most recent last,
	// bounded).
	Events []RebalanceEvent
}

// rebalancer holds the measurement and decision state. All access happens
// under the owning Engine's mutex.
type rebalancer struct {
	interval  int
	threshold float64
	alpha     float64
	nodes     []int // node id per backend; uniform when hierarchy is off
	horizon   int   // batches a cross-node move must amortize over

	batch      int
	lastOps    int       // operations in the most recent batch (cost model)
	ewma       []float64 // pattern-ops per second, per backend
	seeded     []bool
	rebalances int
	crossNode  int
	migrated   int
	events     []RebalanceEvent
}

func newRebalancer(n int, opts Options) *rebalancer {
	r := &rebalancer{
		interval:  opts.Interval,
		threshold: opts.Threshold,
		alpha:     opts.Alpha,
		horizon:   opts.CrossNodeHorizon,
		ewma:      make([]float64, n),
		seeded:    make([]bool, n),
	}
	if r.interval <= 0 {
		r.interval = DefaultInterval
	}
	if r.threshold <= 1 {
		r.threshold = DefaultThreshold
	}
	if r.alpha <= 0 || r.alpha > 1 {
		r.alpha = DefaultAlpha
	}
	if r.horizon <= 0 {
		r.horizon = DefaultCrossNodeHorizon
	}
	r.nodes = make([]int, n)
	if opts.Nodes != nil {
		copy(r.nodes, opts.Nodes)
	}
	return r
}

// multiNode reports whether the backends span more than one node.
func (r *rebalancer) multiNode() bool {
	for _, id := range r.nodes {
		if id != r.nodes[0] {
			return true
		}
	}
	return false
}

// noteBatch records the size of the batch just executed; the cross-node
// cost model needs it to turn per-operation spans into seconds per batch.
//
//beagle:noalloc
func (r *rebalancer) noteBatch(ops int) {
	r.lastOps = ops
}

// Observe folds one backend's batch measurement into its EWMA throughput
// estimate. It runs once per backend per UpdatePartials batch on the hot
// path, so it must stay pure arithmetic.
//
//beagle:noalloc
func (r *rebalancer) Observe(i, patternOps int, seconds float64) {
	if patternOps <= 0 || seconds <= 0 {
		return
	}
	rate := float64(patternOps) / seconds
	if !r.seeded[i] {
		r.ewma[i] = rate
		r.seeded[i] = true
		return
	}
	r.ewma[i] += r.alpha * (rate - r.ewma[i])
}

// due reports whether a rebalance check should run after the current batch,
// advancing the batch counter.
func (r *rebalancer) due() bool {
	r.batch++
	if r.batch%r.interval != 0 {
		return false
	}
	for _, s := range r.seeded {
		if !s {
			return false
		}
	}
	return true
}

// predictSpeedup models batch wall time as the slowest backend's span/rate
// and returns oldTime/newTime for a move from the current to the target
// boundaries.
func (r *rebalancer) predictSpeedup(lo, hi, newLo, newHi []int) float64 {
	var cur, next float64
	for i := range r.ewma {
		if t := float64(hi[i]-lo[i]) / r.ewma[i]; t > cur {
			cur = t
		}
		if t := float64(newHi[i]-newLo[i]) / r.ewma[i]; t > next {
			next = t
		}
	}
	if next <= 0 {
		return 1
	}
	return cur / next
}

// savedSecondsPerBatch converts the modeled wall-time improvement of a move
// into seconds per batch, using the most recent batch's operation count:
// span/rate is seconds per single operation sweep, so batch time is that
// times the operations in the batch.
func (r *rebalancer) savedSecondsPerBatch(lo, hi, newLo, newHi []int) float64 {
	var cur, next float64
	for i := range r.ewma {
		if t := float64(hi[i]-lo[i]) / r.ewma[i]; t > cur {
			cur = t
		}
		if t := float64(newHi[i]-newLo[i]) / r.ewma[i]; t > next {
			next = t
		}
	}
	saved := (cur - next) * float64(r.lastOps)
	if saved < 0 {
		return 0
	}
	return saved
}

// intraNodeTarget computes the partition that redistributes each node's
// current pattern span among that node's own backends by EWMA throughput,
// leaving the node boundaries where they are — the cheap tier of the
// hierarchy, whose migrations never touch the network.
func (r *rebalancer) intraNodeTarget(lo, hi []int) (newLo, newHi []int) {
	n := len(r.ewma)
	newLo = make([]int, n)
	newHi = make([]int, n)
	for b := 0; b < n; {
		end := b
		for end+1 < n && r.nodes[end+1] == r.nodes[b] {
			end++
		}
		span := hi[end] - lo[b]
		glo, ghi := partition(span, r.ewma[b:end+1])
		for i := b; i <= end; i++ {
			newLo[i] = lo[b] + glo[i-b]
			newHi[i] = lo[b] + ghi[i-b]
		}
		b = end + 1
	}
	return newLo, newHi
}

// bytesPerPattern estimates the serialized size of one pattern's migrating
// state: every partials buffer's category×state block, plus its scale and
// tip-state entries, at 8 bytes a value.
func (e *Engine) bytesPerPattern() float64 {
	d := e.cfg.Dims
	return 8 * float64(e.cfg.PartialsBuffers*d.CategoryCount*d.StateCount+
		e.cfg.ScaleBuffers+e.cfg.TipCount)
}

// migrationCostSeconds estimates the wall time of moving from the current
// boundaries to newHi: patterns crossing a boundary between different nodes
// are charged against the measured link bandwidth of the remote side
// (assumedLinkBandwidth when unmeasured). On-host moves are free at this
// model's resolution.
func (e *Engine) migrationCostSeconds(newHi []int) float64 {
	r := e.reb
	bpp := e.bytesPerPattern()
	var cost float64
	for b := 0; b < len(e.subs)-1; b++ {
		if r.nodes[b] == r.nodes[b+1] {
			continue
		}
		moved := newHi[b] - e.hi[b]
		if moved < 0 {
			moved = -moved
		}
		if moved == 0 {
			continue
		}
		bw := 0.0
		if lr, ok := e.subs[b].(LinkReporter); ok && lr.LinkBandwidth() > 0 {
			bw = lr.LinkBandwidth()
		}
		if lr, ok := e.subs[b+1].(LinkReporter); ok && lr.LinkBandwidth() > 0 {
			bw = lr.LinkBandwidth()
		}
		if bw <= 0 {
			bw = assumedLinkBandwidth
		}
		cost += float64(moved) * bpp / bw
	}
	return cost
}

// maybeRebalance runs after a successful UpdatePartials batch with e.mu
// held. At interval boundaries it computes the candidate target partitions
// — intra-node always, global only when its extra speedup amortizes the
// cross-node transfer cost — and, when the chosen target's predicted
// speedup clears the hysteresis threshold, migrates the boundary spans and
// adopts the new partition. With all backends on one node the intra-node
// target IS the global partition, so the flat behavior is unchanged.
func (e *Engine) maybeRebalance() error {
	r := e.reb
	if !r.due() {
		return nil
	}
	tr := e.cfg.Trace
	traceOn := tr.Enabled()
	var tstart int64
	if traceOn {
		tstart = tr.Now()
	}
	p := e.cfg.Dims.PatternCount
	newLo, newHi := r.intraNodeTarget(e.lo, e.hi)
	speedup := r.predictSpeedup(e.lo, e.hi, newLo, newHi)
	cross := false
	var cost float64
	if r.multiNode() {
		gLo, gHi := partition(p, r.ewma)
		if gSpeed := r.predictSpeedup(e.lo, e.hi, gLo, gHi); gSpeed > speedup && gSpeed >= r.threshold {
			c := e.migrationCostSeconds(gHi)
			saved := r.savedSecondsPerBatch(e.lo, e.hi, gLo, gHi) -
				r.savedSecondsPerBatch(e.lo, e.hi, newLo, newHi)
			if saved*float64(r.horizon) > c {
				newLo, newHi, speedup = gLo, gHi, gSpeed
				cross, cost = true, c
			}
		}
	}
	if speedup < r.threshold {
		return nil
	}
	oldHi := append([]int(nil), e.hi...)
	moved, err := e.migrate(newHi)
	if err != nil {
		return fmt.Errorf("multiimpl: rebalance migration: %w", err)
	}
	if traceOn {
		// Speedup ×1000 rides in Arg1 so the integer span args can carry it.
		tr.End(trace.Span{Kind: trace.KindRebalance, Lane: -1,
			Arg0: int64(moved), Arg1: int64(speedup * 1000)}, tstart)
	}
	if moved == 0 {
		return nil
	}
	r.rebalances++
	if cross {
		r.crossNode++
	}
	r.migrated += moved
	r.events = append(r.events, RebalanceEvent{
		Batch:            r.batch,
		OldHi:            oldHi,
		NewHi:            append([]int(nil), newHi...),
		Migrated:         moved,
		PredictedSpeedup: speedup,
		CrossNode:        cross,
		CostSeconds:      cost,
	})
	if len(r.events) > maxEvents {
		r.events = r.events[len(r.events)-maxEvents:]
	}
	return nil
}

// migrate moves boundary pattern spans between neighboring sub-engines
// until the partition boundaries equal newHi, returning the number of
// patterns moved.
//
// The move runs in two phases. Phase 1 walks boundaries right to left and
// handles every boundary that moves up (backend b grows into b+1's low
// end); phase 2 walks left to right and handles every boundary that moves
// down (backend b donates its high end to b+1). Ordering each phase this
// way guarantees the donor always holds more patterns than it gives up:
// when boundary b moves up, boundary b+1 has already reached its final
// position, so backend b+1 still spans at least its final (non-empty)
// range plus the span being detached; symmetrically for phase 2. Engines
// therefore never pass through an empty state, which DetachPatterns
// forbids.
func (e *Engine) migrate(newHi []int) (int, error) {
	n := len(e.subs)
	moved := 0
	tr := e.cfg.Trace
	traceOn := tr.Enabled()
	// step performs one boundary move and traces it: the span lands on the
	// receiving backend's lane, Arg0 carries patterns moved, Arg1 the donor.
	step := func(from, to, span int, move func() error) error {
		var ts int64
		if traceOn {
			ts = tr.Now()
		}
		if err := move(); err != nil {
			return err
		}
		if traceOn {
			tr.End(trace.Span{Kind: trace.KindMigrate, Lane: int32(to), Arg0: int64(span), Arg1: int64(from)}, ts)
		}
		return nil
	}
	// Phase 1: boundaries moving up, right to left.
	for b := n - 2; b >= 0; b-- {
		if newHi[b] <= e.hi[b] {
			continue
		}
		span := newHi[b] - e.hi[b]
		if err := step(b+1, b, span, func() error {
			blk, err := e.subs[b+1].(engine.PatternMigrator).DetachPatterns(false, span)
			if err != nil {
				return err
			}
			return e.subs[b].(engine.PatternMigrator).AttachPatterns(true, blk)
		}); err != nil {
			return moved, err
		}
		e.hi[b] = newHi[b]
		e.lo[b+1] = newHi[b]
		moved += span
	}
	// Phase 2: boundaries moving down, left to right.
	for b := 0; b < n-1; b++ {
		if newHi[b] >= e.hi[b] {
			continue
		}
		span := e.hi[b] - newHi[b]
		if err := step(b, b+1, span, func() error {
			blk, err := e.subs[b].(engine.PatternMigrator).DetachPatterns(true, span)
			if err != nil {
				return err
			}
			return e.subs[b+1].(engine.PatternMigrator).AttachPatterns(false, blk)
		}); err != nil {
			return moved, err
		}
		e.hi[b] = newHi[b]
		e.lo[b+1] = newHi[b]
		moved += span
	}
	return moved, nil
}

// RebalanceStats returns a snapshot of the rebalancer state and whether
// rebalancing is enabled at all.
func (e *Engine) RebalanceStats() (RebalanceStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reb == nil {
		return RebalanceStats{}, false
	}
	r := e.reb
	return RebalanceStats{
		Batches:             r.batch,
		Rebalances:          r.rebalances,
		CrossNodeRebalances: r.crossNode,
		PatternsMigrated:    r.migrated,
		Throughput:          append([]float64(nil), r.ewma...),
		Lo:                  append([]int(nil), e.lo...),
		Hi:                  append([]int(nil), e.hi...),
		Events:              append([]RebalanceEvent(nil), r.events...),
	}, true
}
