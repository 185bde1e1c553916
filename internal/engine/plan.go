package engine

import (
	"gobeagle/internal/kernels"
	"gobeagle/internal/reuse"
)

// ResolvedOp is one operation with every buffer it touches looked up: what a
// backend executes. The embedded indices remain for dependency analysis and
// the reuse filter.
type ResolvedOp[T kernels.Real] struct {
	Operation
	Out    []T     // destination partials
	S1, S2 []int32 // compact-state operands; S2 only when both children are
	P1, P2 []T     // partials operands
	M1, M2 []T
	// ReadScale and WriteScale are nil when the operation asks for neither.
	ReadScale, WriteScale []float64
}

// Partials computes the destination partials for patterns [lo, hi) with the
// kernel of k that matches the operand kinds. It is the one place a backend
// picks a partials kernel; the Set it passes was bound at construction.
func (r *ResolvedOp[T]) Partials(k *kernels.Set[T], d kernels.Dims, lo, hi int) {
	switch {
	case r.S2 != nil:
		k.StatesStates(r.Out, r.S1, r.M1, r.S2, r.M2, d, lo, hi)
	case r.S1 != nil:
		k.StatesPartials(r.Out, r.S1, r.M1, r.P2, r.M2, d, lo, hi)
	default:
		k.PartialsPartials(r.Out, r.P1, r.M1, r.P2, r.M2, d, lo, hi)
	}
}

// Resolve validates every operation and looks its buffers up, once per batch
// and in submission order (the documented dependency order: a child must hold
// data or be the destination of an earlier listed operation). Destinations
// and rescale targets are allocated on the way. A failure anywhere fails the
// whole batch before any kernel has run and before the reuse tracker has
// seen it, so executing the result cannot fail. The returned slice is the
// store's scratch, valid until the next call.
func (s *Storage[T]) Resolve(ops []Operation) ([]ResolvedOp[T], error) {
	if s.closed {
		return nil, ErrClosed
	}
	out := s.resolved[:0]
	if cap(out) < len(ops) {
		out = make([]ResolvedOp[T], 0, len(ops))
	}
	for _, op := range ops {
		r := ResolvedOp[T]{Operation: op}
		var err error
		if r.Out, err = s.DestPartials(op.Dest); err != nil {
			return nil, err
		}
		if r.M1, r.M2, err = s.OpMatrices(op); err != nil {
			return nil, err
		}
		if _, r.S1, r.P1, err = s.ChildOperand(op.Child1); err != nil {
			return nil, err
		}
		if _, r.S2, r.P2, err = s.ChildOperand(op.Child2); err != nil {
			return nil, err
		}
		// Normalize so a compact-states operand, if any, comes first.
		if r.S1 == nil && r.S2 != nil {
			r.S1, r.S2 = r.S2, r.S1
			r.P1, r.P2 = r.P2, r.P1
			r.M1, r.M2 = r.M2, r.M1
		}
		if op.DestScaleWrite != None {
			if r.WriteScale, err = s.ScaleWriteTarget(op.DestScaleWrite); err != nil {
				return nil, err
			}
		}
		if op.DestScaleRead != None {
			// The read buffer must exist before the batch: either written by
			// an earlier batch, or allocated above by this or an earlier
			// listed operation's DestScaleWrite.
			if r.ReadScale, err = s.cumulativeScale(op.DestScaleRead); err != nil {
				return nil, err
			}
		}
		out = append(out, r)
	}
	s.resolved = out
	return out, nil
}

// DropUnchanged is the incremental re-evaluation filter: it compacts a
// resolved batch in place to the operations whose destination does not
// already hold the result of an identical computation over unchanged inputs,
// and returns them (everything, without Cfg.Reuse). Decisions run in
// submission order — the documented dependency order — so an admitted
// ancestor dirties its dependents before they are decided. Resolve covered
// the full list first, so skipping cannot hide an invalid operation and the
// tracker's version bumps cannot be followed by a validation failure; a
// backend with a further reason to refuse a batch (device memory) must do so
// between the two calls.
func (s *Storage[T]) DropUnchanged(rops []ResolvedOp[T]) []ResolvedOp[T] {
	if !s.Reuse.Enabled() {
		return rops
	}
	kept := rops[:0]
	for i := range rops {
		op := &rops[i].Operation
		if s.Reuse.ShouldComputeOp(op.Dest, op.Child1, op.Child1Mat,
			op.Child2, op.Child2Mat, op.DestScaleWrite, op.DestScaleRead) {
			kept = append(kept, rops[i])
		}
	}
	return kept
}

// ReuseStats snapshots the incremental re-evaluation counters; the zero
// value (Enabled false) when the engine was built without Config.Reuse.
func (s *Storage[T]) ReuseStats() reuse.Stats { return s.Reuse.Stats() }
