package engine

import (
	"fmt"

	"gobeagle/internal/kernels"
	"gobeagle/internal/reuse"
)

// ResolvedOp is one operation with every buffer it touches looked up: what a
// backend executes. The embedded indices remain for dependency analysis and
// the reuse filter.
type ResolvedOp[T kernels.Real] struct {
	Operation
	Out []T // destination partials
	// S1 and S2 are compact-state operands, S2 only when both children are.
	// A compact store never sets them: it gathers a tip as a five-class
	// compact child (compact.go).
	S1, S2 []int32
	P1, P2 []T // partials operands
	M1, M2 []T
	// G1 and G2 are gathered operands' class ids, T1 and T2 their side
	// tables with R1 and R2 rows a category (compact.go); G2 only when
	// both children are gathered.
	G1, G2 []int32
	T1, T2 []T
	R1, R2 int
	// ReadScale and WriteScale are nil when the operation asks for neither.
	ReadScale, WriteScale []float64
}

// Partials computes the destination partials for patterns [lo, hi) with the
// kernel of k that matches the operand kinds. It is the one place a backend
// picks a partials kernel; the Set it passes was bound at construction.
func (r *ResolvedOp[T]) Partials(k *kernels.Set[T], d kernels.Dims, lo, hi int) {
	switch {
	case r.T2 != nil:
		kernels.GatherGather4(r.Out, r.G1, r.T1, r.R1, r.G2, r.T2, r.R2, d, lo, hi)
	case r.T1 != nil:
		kernels.GatherPartials4(r.Out, r.G1, r.T1, r.R1, r.P2, r.M2, d, lo, hi)
	case r.S2 != nil:
		k.StatesStates(r.Out, r.S1, r.M1, r.S2, r.M2, d, lo, hi)
	case r.S1 != nil:
		k.StatesPartials(r.Out, r.S1, r.M1, r.P2, r.M2, d, lo, hi)
	default:
		k.PartialsPartials(r.Out, r.P1, r.M1, r.P2, r.M2, d, lo, hi)
	}
}

// normalize puts a compact-states operand, if any, first.
func (r *ResolvedOp[T]) normalize() {
	if r.S1 == nil && r.S2 != nil {
		r.S1, r.S2 = r.S2, r.S1
		r.P1, r.P2 = r.P2, r.P1
		r.M1, r.M2 = r.M2, r.M1
	}
}

// Resolve validates every operation and looks its buffers up, once per batch
// and in submission order (the documented dependency order: a child must hold
// data or be the destination of an earlier listed operation). Destinations
// and rescale targets are allocated. A failure anywhere fails the
// whole batch before any kernel has run and before the reuse tracker has
// seen it, so executing the result cannot fail. The returned slice is the
// store's scratch, valid until the next call.
//
// Validation allocates no destination, so a batch that fails leaves none
// behind for a later call to read. On a compact store (EnableCompact) which
// operations run decides which representation each buffer holds, so Resolve
// then applies the reuse filter itself, runs the compact operations and
// returns only the full-width ones, their destinations allocated
// (planCompact); DropUnchanged returns that list as it is.
func (s *Storage[T]) Resolve(ops []Operation) ([]ResolvedOp[T], error) {
	if s.closed {
		return nil, ErrClosed
	}
	out := s.resolved[:0]
	if cap(out) < len(ops) {
		out = make([]ResolvedOp[T], 0, len(ops))
	}
	s.epoch++
	for _, op := range ops {
		r := ResolvedOp[T]{Operation: op}
		var err error
		if r.M1, r.M2, err = s.OpMatrices(op); err != nil {
			return nil, err
		}
		if err = s.holdsData(op.Child1); err != nil {
			return nil, err
		}
		if err = s.holdsData(op.Child2); err != nil {
			return nil, err
		}
		if err = s.pendingDest(op); err != nil {
			return nil, err
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
	if s.cp != nil {
		out = s.planCompact(out)
	} else {
		for i := range out {
			s.bind(&out[i])
		}
	}
	s.resolved = out
	return out, nil
}

// pendingDest validates an operation's destination, which must not be one
// of its children — no kernel computes in place — and marks it as written by
// an earlier listed operation for the rest of the batch's validation.
func (s *Storage[T]) pendingDest(op Operation) error {
	buf := op.Dest
	if err := s.checkPartialsIndex(buf); err != nil {
		return err
	}
	if buf < s.Cfg.TipCount && s.TipStates[buf] != nil {
		return fmt.Errorf("engine: buffer %d holds compact tip states and cannot be a destination", buf)
	}
	if buf == op.Child1 || buf == op.Child2 {
		return fmt.Errorf("engine: buffer %d is both an operation's destination and its child", buf)
	}
	s.written[buf] = s.epoch
	return nil
}

// holdsData validates an operation child: it must hold tip states, partials
// or a compact node, or be the destination of an earlier listed operation.
func (s *Storage[T]) holdsData(buf int) error {
	if err := s.checkPartialsIndex(buf); err != nil {
		return err
	}
	if (buf >= s.Cfg.TipCount || s.TipStates[buf] == nil) && s.Partials[buf] == nil &&
		s.compactLive(buf) == nil && s.written[buf] != s.epoch {
		return fmt.Errorf("engine: operand buffer %d holds no data", buf)
	}
	return nil
}

// bind looks a validated operation's destination and operands up, the
// destination allocated if needed: Resolve's last step on a store without
// compact subtrees.
func (s *Storage[T]) bind(r *ResolvedOp[T]) {
	r.Out = s.fullDest(r.Dest)
	r.S1, r.P1 = s.operand(r.Child1)
	r.S2, r.P2 = s.operand(r.Child2)
	r.normalize()
}

// operand is a validated child's compact tip states, or else its partials.
func (s *Storage[T]) operand(buf int) ([]int32, []T) {
	if buf < s.Cfg.TipCount && s.TipStates[buf] != nil {
		return s.TipStates[buf], nil
	}
	return nil, s.Partials[buf]
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
	if s.cp != nil {
		return rops // Resolve has filtered it
	}
	return s.dropUnchanged(rops)
}

func (s *Storage[T]) dropUnchanged(rops []ResolvedOp[T]) []ResolvedOp[T] {
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
