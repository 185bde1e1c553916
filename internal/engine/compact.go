package engine

import "gobeagle/internal/kernels"

// Compact subtrees (DESIGN.md, "Compact subtrees"). A store whose backend
// runs the 4-state kernels keeps an operation that reads no scale buffer and
// whose children are both compact — compact-state tips (five classes) or
// compact nodes — as a class table plus one class id per pattern
// (internal/kernels/compact4.go), as long as the children's class counts
// multiply to at most P/4. A rescaling one rescales its table per class row
// and writes each pattern its class's factor. Such an
// operation never writes its P-row partials buffer; Resolve runs it inline,
// before the backend's plan runs the full-width rest of the batch, and a
// full-width operation reads a compact child, compact-state tips among them,
// by gathering the child's side rows, which Resolve builds the same way.
// Every row is the full-width kernels' row, bit for bit, so the
// representation is invisible: the four boundaries that hand partials out —
// GetPartials, the integrations' operands, DetachPatterns and
// AttachPatterns — expand a compact node with ExpandClasses4.

// classes is one partials buffer's compact record. ids, and the version
// naming them, outlive live: a buffer that turns full-width and back keeps
// its ids while the children they were built from keep theirs.
type classes[T kernels.Real] struct {
	// ver is the buffer's class version: a fresh clock value whenever what
	// its class ids would be may have changed — a compact node rebuilding
	// its ids, or SetTipStates, SetTipPartials or SetPartials on the buffer.
	ver uint64
	// live reports that the buffer's value is tab and ids, not Partials.
	live bool
	rows int
	ids  []int32
	tab  []T
	// The children and their versions ids were built from.
	child1, child2 int
	ver1, ver2     uint64
}

// compactStore is a store's compact-subtree state; nil unless EnableCompact.
type compactStore[T kernels.Real] struct {
	// bufs holds a record per partials buffer once a compact operation has
	// run, nil before.
	bufs  []classes[T]
	clock uint64
	// touched[b] == the store's batch epoch marks partials buffer b, and
	// scaleTouched[b] scale buffer b, as touched by an earlier full-width
	// operation of the batch being planned.
	touched, scaleTouched []uint64
	// sides holds the side tables the batch's full-width operations gather
	// from (used of it so far), tmp a compact operation's children's, cls its
	// class rows' scale factors, and exp the integrations' expanded operands.
	sides []T
	used  int
	tmp   []T
	cls   []float64
	exp   [2][]T
	// ran counts the compact operations the last Resolve ran.
	ran int
}

// compactChild is an operation child seen as compact: its class ids, its
// class count and class version, and for a compact node its class table
// (nil for a compact-state tip).
type compactChild[T kernels.Real] struct {
	ids  []int32
	rows int
	ver  uint64
	tab  []T
}

// EnableCompact makes the store keep compact subtrees. Only a backend that
// runs the 4-state kernels on the host opts in, once, before any data is
// set; the store must have four states.
func (s *Storage[T]) EnableCompact() {
	s.cp = &compactStore[T]{touched: make([]uint64, s.Cfg.PartialsBuffers),
		scaleTouched: make([]uint64, s.Cfg.ScaleBuffers)}
}

// Compacted is how many operations the last Resolve ran compact: computed,
// but not in the list it returned.
func (s *Storage[T]) Compacted() int {
	if s.cp == nil {
		return 0
	}
	return s.cp.ran
}

// bumpClasses gives buf a fresh class version and makes it full-width, as
// a setter that replaces its data must; a no-op while no compact operation
// has run, as no class ids are cached.
func (s *Storage[T]) bumpClasses(buf int) {
	if s.cp == nil || s.cp.bufs == nil {
		return
	}
	s.cp.clock++
	s.cp.bufs[buf].ver = s.cp.clock
	s.cp.bufs[buf].live = false
}

// compactLive returns buf's compact record when its value is one.
func (s *Storage[T]) compactLive(buf int) *classes[T] {
	if s.cp == nil || s.cp.bufs == nil || !s.cp.bufs[buf].live {
		return nil
	}
	return &s.cp.bufs[buf]
}

// asCompact returns buf as a compact child, if it is one now. A
// compact-state tip is a compact child of five classes whose ids are its
// states. The gather kernels read a side table at an id unchecked, so the
// store keeps every tip state in [0, 4]: SetTipStates refuses negative states
// and sets those above 4 to 4, and AttachPatterns refuses a state outside
// [0, 4].
func (s *Storage[T]) asCompact(buf int) (compactChild[T], bool) {
	if buf < s.Cfg.TipCount && s.TipStates[buf] != nil {
		var ver uint64
		if s.cp.bufs != nil {
			ver = s.cp.bufs[buf].ver
		}
		return compactChild[T]{ids: s.TipStates[buf], rows: 5, ver: ver}, true
	}
	if rec := s.compactLive(buf); rec != nil {
		return compactChild[T]{ids: rec.ids, rows: rec.rows, ver: rec.ver, tab: rec.tab}, true
	}
	return compactChild[T]{}, false
}

// side writes child's side table through m — its contribution to a parent,
// per class — into out and returns it.
func (s *Storage[T]) side(out []T, child compactChild[T], m []T) []T {
	c := s.Cfg.Dims.CategoryCount
	out = out[:child.rows*c*4]
	if child.tab == nil {
		kernels.TipSide4(out, m, c)
	} else {
		kernels.SideRows4(out, child.tab, m, child.rows, c)
	}
	return out
}

// gatherSide is side into the batch's side-table arena, which grows as
// needed; a table cut from it stays valid until the next batch.
func (s *Storage[T]) gatherSide(child compactChild[T], m []T) []T {
	cp := s.cp
	n := child.rows * s.Cfg.Dims.CategoryCount * 4
	if cp.used+n > len(cp.sides) {
		// Tables already cut keep the old array.
		cp.sides, cp.used = make([]T, max(2*len(cp.sides), cp.used+n)), 0
	}
	out := s.side(cp.sides[cp.used:cp.used+n], child, m)
	cp.used += n
	return out
}

// planCompact is Resolve's last step on a compact store, over the validated
// batch: it applies the reuse filter, runs every operation that can be
// compact and returns the rest with their operands bound. An operation is
// compact when it reads no scale buffer, both its children are compact at its
// place in the batch, their class counts multiply to at most P/4, and no
// earlier full-width operation of the batch touches its destination or the
// scale buffer it writes — the one condition under which running it before
// the backend's plan cannot change what an earlier operation reads or
// writes.
func (s *Storage[T]) planCompact(rops []ResolvedOp[T]) []ResolvedOp[T] {
	cp := s.cp
	rops = s.dropUnchanged(rops)
	cp.ran, cp.used = 0, 0
	p := s.Cfg.Dims.PatternCount
	kept := rops[:0]
	for i := range rops {
		r := rops[i]
		a, aok := s.asCompact(r.Child1)
		b, bok := s.asCompact(r.Child2)
		if aok && bok && r.DestScaleRead == None && a.rows*b.rows*4 <= p && cp.touched[r.Dest] != s.epoch &&
			(r.DestScaleWrite == None || cp.scaleTouched[r.DestScaleWrite] != s.epoch) {
			s.runCompact(&r, a, b)
			cp.ran++
			continue
		}
		s.bindFull(&r, a, aok, b, bok)
		cp.touched[r.Dest], cp.touched[r.Child1], cp.touched[r.Child2] = s.epoch, s.epoch, s.epoch
		if r.DestScaleWrite != None {
			cp.scaleTouched[r.DestScaleWrite] = s.epoch
		}
		if r.DestScaleRead != None {
			cp.scaleTouched[r.DestScaleRead] = s.epoch
		}
		kept = append(kept, r)
	}
	return kept
}

// runCompact computes a compact operation into its destination's record:
// the children's side tables, their products as the class table, and the
// mixed-radix class ids unless the record already holds them for these
// children's versions. A rescaling operation rescales the table as a
// partials buffer of rows patterns: a pattern's row in every category is its
// class's, so its maximum, factor and log factor are the class's, which
// its entry of the scale buffer receives.
func (s *Storage[T]) runCompact(r *ResolvedOp[T], a, b compactChild[T]) {
	cp, c := s.cp, s.Cfg.Dims.CategoryCount
	rows := a.rows * b.rows
	if n := (a.rows + b.rows) * c * 4; len(cp.tmp) < n {
		cp.tmp = make([]T, n)
	}
	s1 := s.side(cp.tmp, a, r.M1)
	s2 := s.side(cp.tmp[len(s1):], b, r.M2)
	if cp.bufs == nil {
		cp.bufs = make([]classes[T], s.Cfg.PartialsBuffers)
	}
	rec := &cp.bufs[r.Dest]
	if rec.ids == nil || rec.child1 != r.Child1 || rec.ver1 != a.ver || rec.child2 != r.Child2 || rec.ver2 != b.ver {
		if rec.ids == nil {
			rec.ids = make([]int32, s.Cfg.Dims.PatternCount)
		}
		kernels.ClassIDs(rec.ids, a.ids, int32(b.rows), b.ids)
		rec.child1, rec.ver1, rec.child2, rec.ver2 = r.Child1, a.ver, r.Child2, b.ver
		cp.clock++
		rec.ver = cp.clock
	}
	if n := rows * c * 4; cap(rec.tab) < n {
		rec.tab = make([]T, n)
	} else {
		rec.tab = rec.tab[:n]
	}
	kernels.ClassTable4(rec.tab, s1, a.rows, s2, b.rows, c)
	if r.WriteScale != nil {
		if len(cp.cls) < rows {
			cp.cls = make([]float64, rows)
		}
		cls := cp.cls[:rows]
		kernels.RescalePartials(rec.tab, cls, kernels.Dims{StateCount: 4, PatternCount: rows, CategoryCount: c}, 0, rows)
		for p, id := range rec.ids {
			r.WriteScale[p] = cls[id]
		}
	}
	rec.rows, rec.live = rows, true
	s.Partials[r.Dest] = nil
}

// bindFull binds a full-width operation's destination and operands: a
// compact child, a compact-state tip included, is gathered through its side
// table, the other child too when compact, and the gathered child comes
// first. A full-width operation on a compact store therefore never carries
// compact-state operands (S1, S2).
func (s *Storage[T]) bindFull(r *ResolvedOp[T], a compactChild[T], aok bool, b compactChild[T], bok bool) {
	r.Out = s.fullDest(r.Dest)
	r.P1, r.P2 = s.Partials[r.Child1], s.Partials[r.Child2]
	if aok {
		r.G1, r.T1, r.R1 = a.ids, s.gatherSide(a, r.M1), a.rows
	}
	if bok {
		r.G2, r.T2, r.R2 = b.ids, s.gatherSide(b, r.M2), b.rows
	}
	if !aok && bok {
		r.G1, r.G2, r.T1, r.T2, r.R1, r.R2 = r.G2, nil, r.T2, nil, r.R2, 0
		r.P1, r.P2, r.M1, r.M2 = nil, r.P1, r.M2, r.M1
	}
}

// fullDest returns (allocating if needed) a validated destination's
// partials buffer: the destination turns or stays full-width.
func (s *Storage[T]) fullDest(buf int) []T {
	if s.cp != nil && s.cp.bufs != nil {
		s.cp.bufs[buf].live = false
	}
	if s.Partials[buf] == nil {
		s.Partials[buf] = make([]T, s.Cfg.Dims.PartialsLen())
	}
	return s.Partials[buf]
}

// expand writes compact node rec at full width into out, or a fresh buffer
// when out is too short, and returns it: the one expansion behind every
// boundary that hands partials out.
func (s *Storage[T]) expand(rec *classes[T], out []T) []T {
	n := s.Cfg.Dims.PartialsLen()
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	kernels.ExpandClasses4(out, rec.tab, rec.ids, rec.rows, s.Cfg.Dims)
	return out
}

// expandAll writes every compact node out to its partials buffer and drops
// every record with a fresh version, as a migration, which changes the
// pattern count the records were built for, must first.
func (s *Storage[T]) expandAll() {
	if s.cp == nil {
		return
	}
	for b := range s.cp.bufs {
		if rec := s.compactLive(b); rec != nil {
			s.Partials[b] = s.expand(rec, nil)
		}
		s.cp.clock++
		s.cp.bufs[b] = classes[T]{ver: s.cp.clock}
	}
	s.cp.exp = [2][]T{}
}
