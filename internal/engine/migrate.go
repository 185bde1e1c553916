package engine

import "fmt"

// PatternBlock is the interchange format for migrating a contiguous range of
// site patterns between engines: every piece of per-pattern state an engine
// holds, extracted for one pattern span. Values cross this boundary as
// float64, exactly as the rest of the engine interface does, so blocks move
// losslessly between same-precision backends of different implementations
// (host CPU ↔ accelerator).
//
// Buffers that are unset on the source engine stay nil in the block;
// replicated state (transition matrices, eigendecompositions, category rates
// and weights, state frequencies) is not per-pattern and never migrates.
type PatternBlock struct {
	// Patterns is the span of the block.
	Patterns int
	// TipStates holds compact tip states per tip buffer (nil for tips set
	// as expanded partials or never set).
	TipStates [][]int32
	// Partials holds partials per buffer in [category][pattern][state]
	// layout with PatternCount == Patterns (nil for unset buffers).
	Partials [][]float64
	// Weights holds the per-pattern multiplicities.
	Weights []float64
	// Scale holds per-pattern log scale factors per scale buffer, including
	// cumulative buffers (nil for unwritten buffers).
	Scale [][]float64
}

// PatternMigrator is the optional engine capability behind multi-device
// rebalancing: an engine that can shrink or grow its pattern range at either
// end, handing the affected per-pattern state over as a PatternBlock. The
// multi-device engine moves partition boundaries between neighboring
// sub-engines by detaching a boundary region from one and attaching it to
// the other.
//
// Both operations change the engine's pattern count; all per-pattern inputs
// set afterwards must use the new count. An engine must always retain at
// least one pattern.
type PatternMigrator interface {
	// DetachPatterns removes n patterns from the high end (fromHigh) or the
	// low end of the engine's pattern range and returns their state.
	DetachPatterns(fromHigh bool, n int) (*PatternBlock, error)
	// AttachPatterns inserts a block at the high end (atHigh) or the low
	// end of the engine's pattern range.
	AttachPatterns(atHigh bool, blk *PatternBlock) error
}

// blockRange returns the [lo,hi) local pattern range a detach of n patterns
// covers.
func blockRange(patterns int, fromHigh bool, n int) (lo, hi int) {
	if fromHigh {
		return patterns - n, patterns
	}
	return 0, n
}

// DetachPatterns removes n patterns from one end of the storage, returning
// their tip states, partials, weights and scale factors. The storage keeps
// at least one pattern.
func (s *Storage[T]) DetachPatterns(fromHigh bool, n int) (*PatternBlock, error) {
	if s.closed {
		return nil, ErrClosed
	}
	p := s.Cfg.Dims.PatternCount
	if n <= 0 || n >= p {
		return nil, fmt.Errorf("engine: cannot detach %d of %d patterns", n, p)
	}
	lo, hi := blockRange(p, fromHigh, n)
	keepLo, keepHi := 0, lo
	if !fromHigh {
		keepLo, keepHi = hi, p
	}
	d := s.Cfg.Dims
	blk := &PatternBlock{
		Patterns:  n,
		TipStates: make([][]int32, len(s.TipStates)),
		Partials:  make([][]float64, len(s.Partials)),
		Weights:   append([]float64(nil), s.PatWts[lo:hi]...),
		Scale:     make([][]float64, len(s.Scale)),
	}
	for t, st := range s.TipStates {
		if st == nil {
			continue
		}
		blk.TipStates[t] = append([]int32(nil), st[lo:hi]...)
		s.TipStates[t] = append([]int32(nil), st[keepLo:keepHi]...)
	}
	for b, part := range s.Partials {
		if part == nil {
			continue
		}
		out := make([]float64, d.CategoryCount*n*d.StateCount)
		keep := make([]T, d.CategoryCount*(keepHi-keepLo)*d.StateCount)
		for c := 0; c < d.CategoryCount; c++ {
			src := part[(c*d.PatternCount+lo)*d.StateCount : (c*d.PatternCount+hi)*d.StateCount]
			for i, v := range src {
				out[c*n*d.StateCount+i] = float64(v)
			}
			copy(keep[c*(keepHi-keepLo)*d.StateCount:], part[(c*d.PatternCount+keepLo)*d.StateCount:(c*d.PatternCount+keepHi)*d.StateCount])
		}
		blk.Partials[b] = out
		s.Partials[b] = keep
	}
	for b, sc := range s.Scale {
		if sc == nil {
			continue
		}
		blk.Scale[b] = append([]float64(nil), sc[lo:hi]...)
		s.Scale[b] = append([]float64(nil), sc[keepLo:keepHi]...)
	}
	s.PatWts = append([]float64(nil), s.PatWts[keepLo:keepHi]...)
	s.Cfg.Dims.PatternCount = p - n
	return blk, nil
}

// AttachPatterns inserts a detached block at one end of the storage. The
// block's buffer occupancy must match the storage's: a block carrying data
// for a buffer the storage has never seen (or vice versa) indicates the two
// engines diverged and is an error. Every entry must span the block's
// patterns and every tip state lie in [0, StateCount], since a block can
// arrive off the wire.
func (s *Storage[T]) AttachPatterns(atHigh bool, blk *PatternBlock) error {
	if s.closed {
		return ErrClosed
	}
	if blk == nil || blk.Patterns <= 0 {
		return fmt.Errorf("engine: cannot attach an empty pattern block")
	}
	if len(blk.TipStates) != len(s.TipStates) || len(blk.Partials) != len(s.Partials) || len(blk.Scale) != len(s.Scale) {
		return fmt.Errorf("engine: pattern block geometry (%d/%d/%d buffers) does not match storage (%d/%d/%d)",
			len(blk.TipStates), len(blk.Partials), len(blk.Scale),
			len(s.TipStates), len(s.Partials), len(s.Scale))
	}
	d := s.Cfg.Dims
	p, n := d.PatternCount, blk.Patterns
	for t := range s.TipStates {
		if (s.TipStates[t] == nil) != (blk.TipStates[t] == nil) {
			return fmt.Errorf("engine: tip-state buffer %d occupancy mismatch in pattern block", t)
		}
		if st := blk.TipStates[t]; st != nil && len(st) != n {
			return fmt.Errorf("engine: pattern block carries %d states for tip %d, want %d", len(st), t, n)
		}
		for _, v := range blk.TipStates[t] {
			if v < 0 || int(v) > d.StateCount {
				return fmt.Errorf("engine: pattern block carries state %d for tip %d", v, t)
			}
		}
	}
	for b := range s.Partials {
		if (s.Partials[b] == nil) != (blk.Partials[b] == nil) {
			return fmt.Errorf("engine: partials buffer %d occupancy mismatch in pattern block", b)
		}
		if part := blk.Partials[b]; part != nil && len(part) != d.CategoryCount*n*d.StateCount {
			return fmt.Errorf("engine: pattern block carries %d partials for buffer %d, want %d", len(part), b, d.CategoryCount*n*d.StateCount)
		}
	}
	for b := range s.Scale {
		if (s.Scale[b] == nil) != (blk.Scale[b] == nil) {
			return fmt.Errorf("engine: scale buffer %d occupancy mismatch in pattern block", b)
		}
		if sc := blk.Scale[b]; sc != nil && len(sc) != n {
			return fmt.Errorf("engine: pattern block carries %d scale factors for buffer %d, want %d", len(sc), b, n)
		}
	}
	if len(blk.Weights) != n {
		return fmt.Errorf("engine: pattern block carries %d weights for %d patterns", len(blk.Weights), n)
	}
	for t, st := range s.TipStates {
		if st == nil {
			continue
		}
		s.TipStates[t] = spliceInt32(st, blk.TipStates[t], atHigh)
	}
	for b, part := range s.Partials {
		if part == nil {
			continue
		}
		merged := make([]T, d.CategoryCount*(p+n)*d.StateCount)
		for c := 0; c < d.CategoryCount; c++ {
			dst := merged[c*(p+n)*d.StateCount : (c+1)*(p+n)*d.StateCount]
			old := part[c*p*d.StateCount : (c+1)*p*d.StateCount]
			add := blk.Partials[b][c*n*d.StateCount : (c+1)*n*d.StateCount]
			if atHigh {
				copy(dst, old)
				for i, v := range add {
					dst[len(old)+i] = T(v)
				}
			} else {
				for i, v := range add {
					dst[i] = T(v)
				}
				copy(dst[len(add):], old)
			}
		}
		s.Partials[b] = merged
	}
	for b, sc := range s.Scale {
		if sc == nil {
			continue
		}
		s.Scale[b] = spliceFloat64(sc, blk.Scale[b], atHigh)
	}
	s.PatWts = spliceFloat64(s.PatWts, blk.Weights, atHigh)
	s.Cfg.Dims.PatternCount = p + n
	return nil
}

func spliceInt32(old, add []int32, atHigh bool) []int32 {
	out := make([]int32, 0, len(old)+len(add))
	if atHigh {
		return append(append(out, old...), add...)
	}
	return append(append(out, add...), old...)
}

func spliceFloat64(old, add []float64, atHigh bool) []float64 {
	out := make([]float64, 0, len(old)+len(add))
	if atHigh {
		return append(append(out, old...), add...)
	}
	return append(append(out, add...), old...)
}
