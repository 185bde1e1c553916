package accelimpl

import "gobeagle/internal/engine"

// The accelerator engines support the pattern-range migration behind
// multi-device rebalancing with the store's own split and splice. What the
// device adds is the cost: every live per-pattern buffer (partials, compact
// tip states, scale factors) is staged through the host — downloaded at the
// old pattern count, re-uploaded at the new one — and the site staging buffer
// is reallocated. Every copy is charged to the command queue, so the modeled
// device clock carries the real host↔device traffic a rebalance costs — the
// reason the rebalancer only migrates when the predicted steady-state win
// exceeds its hysteresis threshold.

// DetachPatterns removes n patterns from one end of the engine's range and
// returns their state; the engine keeps at least one pattern.
func (e *Engine[T]) DetachPatterns(fromHigh bool, n int) (*engine.PatternBlock, error) {
	before := e.Cfg.Dims.PatternCount
	blk, err := e.Storage.DetachPatterns(fromHigh, n)
	if err != nil {
		return nil, err
	}
	return blk, e.restaged(before)
}

// AttachPatterns inserts a detached block at one end of the engine's range.
func (e *Engine[T]) AttachPatterns(atHigh bool, blk *engine.PatternBlock) error {
	before := e.Cfg.Dims.PatternCount
	if err := e.Storage.AttachPatterns(atHigh, blk); err != nil {
		return err
	}
	return e.restaged(before)
}

// restaged accounts for a migration the store has just performed from the
// given pattern count: it charges each live buffer's round trip, resizes the
// staging buffer (its contents are produced fresh by every integration) and
// reserves the new footprint.
func (e *Engine[T]) restaged(before int) error {
	after := e.Cfg.Dims.PatternCount
	perPattern := e.Cfg.Dims.CategoryCount * e.Cfg.Dims.StateCount
	for _, b := range e.TipStates {
		if b != nil {
			e.transferred(before, 4)
			e.transferred(after, 4)
		}
	}
	for _, b := range e.Partials {
		if b != nil {
			e.transferred(before*perPattern, e.elemSize())
			e.transferred(after*perPattern, e.elemSize())
		}
	}
	for _, b := range e.Scale {
		if b != nil {
			e.transferred(before, 8)
			e.transferred(after, 8)
		}
	}
	e.site = make([]float64, after)
	return e.reserve()
}

var _ engine.PatternMigrator = (*Engine[float64])(nil)
var _ engine.PatternMigrator = (*Engine[float32])(nil)
