// Package multiimpl implements the load-balancing extension the paper's
// conclusion plans as future work (§IX): computation dynamically balanced
// across multiple devices *within a single library instance*, instead of
// requiring the client program to partition the problem and manage one
// instance per device.
//
// The engine partitions the site patterns into contiguous slices — sized
// proportionally to each backend's expected throughput — and drives one
// sub-engine per slice. Setters scatter their per-pattern data, operations
// execute on all backends concurrently, and likelihood reductions gather
// partial results. Because patterns are independent in the likelihood
// function, the partitioned computation is exact.
//
// When rebalancing is enabled the engine additionally measures each
// backend's realized throughput and migrates boundary pattern spans between
// neighbors whenever the measured split has drifted far enough from the
// configured one (see rebalance.go).
package multiimpl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/reuse"
	"gobeagle/internal/trace"
)

// Builder constructs a backend engine for one pattern slice. The passed
// configuration equals the parent configuration except for its pattern
// count.
type Builder func(sub engine.Config) (engine.Engine, error)

// Engine is a single logical instance spanning multiple backends.
type Engine struct {
	cfg  engine.Config
	subs []engine.Engine

	// mu serializes every engine call. The library contract already forbids
	// concurrent mutation of one instance, but the rebalancer moves pattern
	// spans between sub-engines mid-stream, so the engine enforces the
	// serialization itself: the end of an UpdatePartials batch under mu is
	// the safe barrier at which repartitioning happens.
	mu     sync.Mutex
	lo, hi []int // pattern range per backend
	reb    *rebalancer

	// patWts is the full pattern-weight vector in global pattern order. The
	// root reduction needs it: summing per-backend partial root sums would
	// tie the result's floating-point association to the current partition,
	// so the engine instead gathers per-pattern site log likelihoods (bit-
	// identical under any partition) and reduces Σ_p w_p·site_p in global
	// pattern order — the exact arithmetic of the single-node root kernel,
	// regardless of how many backends the patterns are spread over or where
	// the rebalancer has moved the boundaries.
	patWts []float64
}

// partition splits p patterns into contiguous per-backend ranges sized
// proportionally to shares, with a 1-pattern floor per backend. It requires
// len(shares) >= 1, every share > 0 and p >= len(shares); the returned
// ranges exactly cover [0, p).
func partition(p int, shares []float64) (lo, hi []int) {
	n := len(shares)
	var total float64
	for _, s := range shares {
		total += s
	}
	lo = make([]int, n)
	hi = make([]int, n)
	var acc float64
	prev := 0
	for i := 0; i < n; i++ {
		acc += shares[i]
		h := int(float64(p)*acc/total + 0.5)
		if i == n-1 {
			h = p
		}
		if h <= prev {
			h = prev + 1
		}
		if h > p-(n-1-i) {
			h = p - (n - 1 - i)
		}
		lo[i], hi[i] = prev, h
		prev = h
	}
	return lo, hi
}

// New creates a multi-device engine. shares give the relative throughput of
// each backend (nil for equal shares); patterns are partitioned
// proportionally, each backend receiving at least one pattern.
func New(cfg engine.Config, builders []Builder, shares []float64) (*Engine, error) {
	return NewBalanced(cfg, builders, shares, Options{})
}

// NewBalanced creates a multi-device engine with adaptive rebalancing
// options. With opts.Rebalance set, every backend must support pattern
// migration (engine.PatternMigrator).
func NewBalanced(cfg engine.Config, builders []Builder, shares []float64, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(builders)
	if n == 0 {
		return nil, errors.New("multiimpl: need at least one backend")
	}
	if shares == nil {
		shares = make([]float64, n)
		for i := range shares {
			shares[i] = 1
		}
	}
	if len(shares) != n {
		return nil, fmt.Errorf("multiimpl: %d shares for %d backends", len(shares), n)
	}
	for _, s := range shares {
		if s <= 0 {
			return nil, errors.New("multiimpl: shares must be positive")
		}
	}
	p := cfg.Dims.PatternCount
	if p < n {
		return nil, fmt.Errorf("multiimpl: %d patterns cannot be split across %d backends", p, n)
	}

	if err := validateNodes(opts.Nodes, n); err != nil {
		return nil, err
	}

	e := &Engine{cfg: cfg}
	e.patWts = make([]float64, p)
	for i := range e.patWts {
		e.patWts[i] = 1
	}
	e.lo, e.hi = partition(p, shares)
	for i, b := range builders {
		sub := cfg
		sub.Dims.PatternCount = e.hi[i] - e.lo[i]
		// The parent engine aggregates batch wall times spanning all
		// backends; letting sub-engines also aggregate would double count
		// concurrent work. Their spans carry lanes, so sub-engines record
		// into the parent's ring through a span-only view, each backend on
		// its index as its lane — the exported timeline shows the backends
		// side by side.
		sub.Trace = cfg.Trace.SpansOnly()
		sub.TraceLane = i
		eng, err := b(sub)
		if err != nil {
			for _, s := range e.subs {
				s.Close()
			}
			return nil, fmt.Errorf("multiimpl: backend %d: %w", i, err)
		}
		e.subs = append(e.subs, eng)
	}
	if opts.Rebalance {
		for i, sub := range e.subs {
			if _, ok := sub.(engine.PatternMigrator); !ok {
				e.Close()
				return nil, fmt.Errorf("multiimpl: backend %d (%s) does not support pattern migration", i, sub.Name())
			}
		}
		e.reb = newRebalancer(n, opts)
	}
	return e, nil
}

// Name lists the backend implementations.
func (e *Engine) Name() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := "Multi["
	for i, sub := range e.subs {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s(%d)", sub.Name(), e.hi[i]-e.lo[i])
	}
	return s + "]"
}

// Ranges returns each backend's pattern range, for tests and diagnostics.
func (e *Engine) Ranges() (lo, hi []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.lo...), append([]int(nil), e.hi...)
}

// Backends returns the sub-engines in partition order, for diagnostics that
// need to reach through the coordinator (e.g. gathering per-backend
// transport statistics from remote engines). Callers must not drive the
// returned engines directly while the multi-engine is in use.
func (e *Engine) Backends() []engine.Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]engine.Engine(nil), e.subs...)
}

// ReuseStats reports the incremental re-evaluation counters when the
// backends were built with engine.Config.Reuse (zero-value Stats with
// Enabled=false otherwise).
//
// Every backend holds an identical reuse tracker: setters broadcast (or
// scatter per-pattern slices of the same buffer) and operation lists are
// forwarded wholesale, so each sub-engine's tracker observes the same
// invalidation and decision stream and makes the same skip/compute choices.
// Pattern migration under rebalancing moves per-pattern state bit-identically
// between neighbors without changing any buffer's logical contents, so it
// validly carries cache state — no invalidation is needed at a migration
// boundary. The first backend's counters therefore represent the whole
// instance.
func (e *Engine) ReuseStats() reuse.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.subs[0].(interface{ ReuseStats() reuse.Stats }); ok {
		return r.ReuseStats()
	}
	return reuse.Stats{}
}

// Close closes every backend, joining all errors.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	errs := make([]error, len(e.subs))
	for i, s := range e.subs {
		errs[i] = s.Close()
	}
	return errors.Join(errs...)
}

// parallel runs f for every backend concurrently and joins the errors. The
// caller must hold e.mu.
func (e *Engine) parallel(f func(i int, sub engine.Engine) error) error {
	errs := make([]error, len(e.subs))
	var wg sync.WaitGroup
	wg.Add(len(e.subs))
	for i, sub := range e.subs {
		go func(i int, sub engine.Engine) {
			defer wg.Done()
			errs[i] = f(i, sub)
		}(i, sub)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// SetTipStates scatters compact states across backends.
func (e *Engine) SetTipStates(buf int, states []int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(states) != e.cfg.Dims.PatternCount {
		return fmt.Errorf("multiimpl: tip states length %d, want %d", len(states), e.cfg.Dims.PatternCount)
	}
	return e.parallel(func(i int, sub engine.Engine) error {
		return sub.SetTipStates(buf, states[e.lo[i]:e.hi[i]])
	})
}

// SetTipPartials scatters per-pattern tip partials.
func (e *Engine) SetTipPartials(buf int, partials []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.cfg.Dims.StateCount
	if len(partials) != e.cfg.Dims.PatternCount*s {
		return fmt.Errorf("multiimpl: tip partials length %d, want %d", len(partials), e.cfg.Dims.PatternCount*s)
	}
	return e.parallel(func(i int, sub engine.Engine) error {
		return sub.SetTipPartials(buf, partials[e.lo[i]*s:e.hi[i]*s])
	})
}

// SetPartials scatters a full partials buffer (slicing every category
// block).
func (e *Engine) SetPartials(buf int, partials []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.cfg.Dims
	if len(partials) != d.PartialsLen() {
		return fmt.Errorf("multiimpl: partials length %d, want %d", len(partials), d.PartialsLen())
	}
	return e.parallel(func(i int, sub engine.Engine) error {
		span := e.hi[i] - e.lo[i]
		out := make([]float64, d.CategoryCount*span*d.StateCount)
		for c := 0; c < d.CategoryCount; c++ {
			src := partials[(c*d.PatternCount+e.lo[i])*d.StateCount : (c*d.PatternCount+e.hi[i])*d.StateCount]
			copy(out[c*span*d.StateCount:], src)
		}
		return sub.SetPartials(buf, out)
	})
}

// GetPartials gathers a partials buffer from the backends.
func (e *Engine) GetPartials(buf int) ([]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.cfg.Dims
	out := make([]float64, d.PartialsLen())
	err := e.parallel(func(i int, sub engine.Engine) error {
		part, err := sub.GetPartials(buf)
		if err != nil {
			return err
		}
		span := e.hi[i] - e.lo[i]
		for c := 0; c < d.CategoryCount; c++ {
			dst := out[(c*d.PatternCount+e.lo[i])*d.StateCount : (c*d.PatternCount+e.hi[i])*d.StateCount]
			copy(dst, part[c*span*d.StateCount:(c*span+span)*d.StateCount])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SetEigenDecomposition broadcasts to every backend.
func (e *Engine) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.SetEigenDecomposition(slot, values, vectors, inverseVectors)
	})
}

// SetCategoryRates broadcasts to every backend.
func (e *Engine) SetCategoryRates(rates []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.SetCategoryRates(rates)
	})
}

// SetCategoryWeights broadcasts to every backend.
func (e *Engine) SetCategoryWeights(weights []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.SetCategoryWeights(weights)
	})
}

// SetStateFrequencies broadcasts to every backend.
func (e *Engine) SetStateFrequencies(freqs []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.SetStateFrequencies(freqs)
	})
}

// SetPatternWeights scatters per-pattern weights.
func (e *Engine) SetPatternWeights(weights []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(weights) != e.cfg.Dims.PatternCount {
		return fmt.Errorf("multiimpl: %d pattern weights, want %d", len(weights), e.cfg.Dims.PatternCount)
	}
	copy(e.patWts, weights) // full copy for the deterministic root reduction
	return e.parallel(func(i int, sub engine.Engine) error {
		return sub.SetPatternWeights(weights[e.lo[i]:e.hi[i]])
	})
}

// SetTransitionMatrix broadcasts an explicit matrix.
func (e *Engine) SetTransitionMatrix(matrix int, values []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.SetTransitionMatrix(matrix, values)
	})
}

// GetTransitionMatrix reads from the first backend (matrices are
// replicated).
func (e *Engine) GetTransitionMatrix(matrix int) ([]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subs[0].GetTransitionMatrix(matrix)
}

// UpdateTransitionMatrices broadcasts; every backend computes the same
// matrices (data parallelism is across patterns, not branches).
func (e *Engine) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	start, on := e.cfg.Trace.Begin()
	err := e.parallel(func(_ int, sub engine.Engine) error {
		return sub.UpdateTransitionMatrices(eigenSlot, matrices, edgeLengths)
	})
	if err == nil && on {
		e.cfg.Trace.End(trace.Span{Kind: trace.KindMatrices, Lane: -1, Arg0: int64(len(matrices))}, start)
	}
	return err
}

// UpdatePartials executes the operation list on every backend concurrently
// — each over its own pattern slice. This is the load-balanced execution of
// §IX. With rebalancing enabled it also times each backend and, at interval
// boundaries, repartitions the patterns to match measured throughput.
//
// Scaling — including DestScaleRead — is per pattern, so forwarding the ops
// unchanged is exact: each backend applies read and write scale factors to
// its own pattern slice of the shared scale buffer indices.
func (e *Engine) UpdatePartials(ops []engine.Operation) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tr := e.cfg.Trace
	start, on := tr.Begin()
	var batch uint64
	if on {
		batch = tr.NextBatch()
	}
	// Each backend's interval is timed once, for its span and for the
	// rebalancer's throughput estimate.
	var elapsed []time.Duration
	if e.reb != nil {
		elapsed = make([]time.Duration, len(e.subs))
	}
	timed := on || elapsed != nil
	err := e.parallel(func(i int, sub engine.Engine) error {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		err := sub.UpdatePartials(ops)
		if timed {
			d := time.Since(t0)
			if elapsed != nil {
				elapsed[i] = d
			}
			if on {
				tr.Record(trace.Span{Kind: trace.KindBackend, Lane: int32(i), Batch: batch, Start: tr.At(t0),
					Dur: int64(d), Arg0: int64(len(ops)), Arg1: int64(e.hi[i] - e.lo[i])})
			}
		}
		return err
	})
	if err == nil && elapsed != nil {
		e.reb.noteBatch(len(ops))
		for i := range e.subs {
			e.reb.Observe(i, (e.hi[i]-e.lo[i])*len(ops), elapsed[i].Seconds())
		}
		err = e.maybeRebalance()
	}
	if err == nil && on {
		tr.End(trace.Span{Kind: trace.KindBarrier, Lane: -1, Batch: batch,
			Arg0: int64(len(e.subs)), Arg1: int64(len(ops))}, start)
	}
	return err
}

// ResetScaleFactors broadcasts.
func (e *Engine) ResetScaleFactors(scaleBuf int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.ResetScaleFactors(scaleBuf)
	})
}

// AccumulateScaleFactors broadcasts; each backend accumulates its own
// pattern slice.
func (e *Engine) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.AccumulateScaleFactors(scaleBufs, cumBuf)
	})
}

// CalculateRootLogLikelihoods gathers per-pattern site log likelihoods from
// the backends and reduces Σ_p w_p·site_p in global pattern order. Patterns
// are independent, so the partition is exact; reducing in global order
// additionally makes the result bit-identical to the single-node root kernel
// (which accumulates the same terms left to right) — summing per-backend
// partial sums instead would tie the floating-point association to wherever
// the partition boundaries happen to sit.
func (e *Engine) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start, on := e.cfg.Trace.Begin()
	sites := make([]float64, e.cfg.Dims.PatternCount)
	err := e.parallel(func(i int, sub engine.Engine) error {
		site, err := sub.SiteLogLikelihoods(rootBuf, cumScaleBuf)
		if err != nil {
			return err
		}
		copy(sites[e.lo[i]:e.hi[i]], site)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for p, site := range sites {
		total += e.patWts[p] * site
	}
	if on {
		e.cfg.Trace.End(trace.Span{Kind: trace.KindRoot, Lane: -1, Arg0: int64(len(sites))}, start)
	}
	return total, nil
}

// CalculateEdgeLogLikelihoods sums across backends.
func (e *Engine) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start, on := e.cfg.Trace.Begin()
	parts := make([]float64, len(e.subs))
	err := e.parallel(func(i int, sub engine.Engine) error {
		lnL, err := sub.CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf)
		parts[i] = lnL
		return err
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, p := range parts {
		total += p
	}
	if on {
		e.cfg.Trace.End(trace.Span{Kind: trace.KindEdge, Lane: -1, Arg0: int64(e.cfg.Dims.PatternCount)}, start)
	}
	return total, nil
}

// UpdateTransitionDerivatives broadcasts to every backend.
func (e *Engine) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallel(func(_ int, sub engine.Engine) error {
		return sub.UpdateTransitionDerivatives(eigenSlot, d1Matrices, d2Matrices, edgeLengths)
	})
}

// CalculateEdgeDerivatives sums the backends' pattern-slice contributions:
// the log likelihood and both derivatives are sums over patterns.
func (e *Engine) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lnLs := make([]float64, len(e.subs))
	d1s := make([]float64, len(e.subs))
	d2s := make([]float64, len(e.subs))
	err := e.parallel(func(i int, sub engine.Engine) error {
		lnL, d1, d2, err := sub.CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf)
		lnLs[i], d1s[i], d2s[i] = lnL, d1, d2
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var lnL, d1, d2 float64
	for i := range lnLs {
		lnL += lnLs[i]
		d1 += d1s[i]
		d2 += d2s[i]
	}
	return lnL, d1, d2, nil
}

// SiteLogLikelihoods gathers per-pattern log likelihoods in pattern order.
func (e *Engine) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]float64, e.cfg.Dims.PatternCount)
	err := e.parallel(func(i int, sub engine.Engine) error {
		site, err := sub.SiteLogLikelihoods(rootBuf, cumScaleBuf)
		if err != nil {
			return err
		}
		copy(out[e.lo[i]:e.hi[i]], site)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

var _ engine.Engine = (*Engine)(nil)
