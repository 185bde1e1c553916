// Package reuse implements the dirty-flag dependency tracking that turns
// full-tree peel submissions into incremental re-evaluation. Proposal-driven
// inference (MCMC, SMC) invalidates only the path from a changed edge to the
// root, yet the natural client pattern — and the only portable one across
// BEAGLE implementations — is to resubmit the complete post-order operation
// list every iteration. A Tracker makes that cheap: it remembers, per
// destination buffer, the exact operation signature (children, matrices,
// scale indices) and version counters of every input the last time the
// buffer was computed, so an engine can skip operations whose inputs are
// bit-identical to the previous computation.
//
// The contract rests on kernel determinism: every engine in this library
// computes the same destination contents from the same input contents, so
// "inputs unchanged since the last identical computation" implies the stored
// destination is exactly what recomputing would produce. Version counters
// stand in for content hashes — they are bumped by every mutating entry
// point (tip/partials setters, matrix setters and updates, model-parameter
// setters) and by every executed operation, and never bumped by a skip.
//
// Transition matrices get content-addressed entries of their own: an
// UpdateTransitionMatrices request for matrix m is skippable when the
// (model version, eigen slot, edge length) triple matches the one that
// produced the current buffer contents. This is what makes full-schedule
// resubmission free — an MCMC step resubmits every branch's matrix, but only
// the proposed branch misses, and the partials cascade then recomputes only
// the path from that branch to the root.
//
// A Tracker is single-goroutine like the engine that owns it; only the
// statistics counters are atomic, so Stats() may be read while another
// goroutine drives a sibling instance. All methods are safe on a nil
// *Tracker, which behaves as permanently disabled (every query answers
// "compute").
package reuse

import "sync/atomic"

// None mirrors engine.None (-1): no scale buffer. Declared locally so the
// engine package can depend on reuse without a cycle.
const None = -1

// opSig records how a destination buffer was last computed: the operation
// shape plus the version of every input at execution time, and the version
// its write left the scale buffer it rescales into at.
type opSig struct {
	valid              bool
	child1, child1Mat  int
	child2, child2Mat  int
	scaleWrite         int
	scaleRead          int
	child1Ver, mat1Ver uint64
	child2Ver, mat2Ver uint64
	scaleReadVer       uint64
	scaleWriteVer      uint64
}

// matEntry content-addresses a transition-matrix buffer: the model version,
// eigen slot and exact edge length that produced its current contents.
type matEntry struct {
	valid  bool
	model  uint64
	eigen  int
	length float64
}

// Tracker is the per-engine dirty-flag dependency DAG over partials, matrix
// and scale buffers.
type Tracker struct {
	partialsVer []uint64
	matrixVer   []uint64
	scaleVer    []uint64
	modelVer    uint64
	sigs        []opSig
	mats        []matEntry

	opHits        atomic.Uint64
	opMisses      atomic.Uint64
	matHits       atomic.Uint64
	matMisses     atomic.Uint64
	invalidations atomic.Uint64
}

// New creates a tracker sized for an engine's buffer counts.
func New(partialsBuffers, matrixBuffers, scaleBuffers int) *Tracker {
	return &Tracker{
		partialsVer: make([]uint64, partialsBuffers),
		matrixVer:   make([]uint64, matrixBuffers),
		scaleVer:    make([]uint64, scaleBuffers),
		sigs:        make([]opSig, partialsBuffers),
		mats:        make([]matEntry, matrixBuffers),
	}
}

// Enabled reports whether the tracker is live (non-nil).
func (t *Tracker) Enabled() bool { return t != nil }

// InvalidatePartials marks a partials (or tip) buffer's contents as
// externally replaced: SetTipStates, SetTipPartials, SetPartials.
func (t *Tracker) InvalidatePartials(buf int) {
	if t == nil || buf < 0 || buf >= len(t.partialsVer) {
		return
	}
	t.partialsVer[buf]++
	t.sigs[buf].valid = false
	t.invalidations.Add(1)
}

// InvalidateMatrix marks a matrix buffer's contents as externally replaced:
// SetTransitionMatrix, or a derivative update writing into it.
func (t *Tracker) InvalidateMatrix(m int) {
	if t == nil || m < 0 || m >= len(t.matrixVer) {
		return
	}
	t.matrixVer[m]++
	t.mats[m].valid = false
	t.invalidations.Add(1)
}

// InvalidateScale marks a scale buffer's contents as externally replaced:
// ResetScaleFactors, AccumulateScaleFactors.
func (t *Tracker) InvalidateScale(b int) {
	if t == nil || b < 0 || b >= len(t.scaleVer) {
		return
	}
	t.scaleVer[b]++
	t.invalidations.Add(1)
}

// InvalidateModel bumps the model version shared by every matrix entry:
// eigendecompositions, category rates/weights, state frequencies, pattern
// weights. Conservative — a weight change cannot alter a transition matrix —
// but these are setup-time calls, and one counter keeps every matrix entry's
// dependencies exact.
func (t *Tracker) InvalidateModel() {
	if t == nil {
		return
	}
	t.modelVer++
	t.invalidations.Add(1)
}

// ShouldComputeMatrix decides one matrix of an UpdateTransitionMatrices
// request. It returns false (skip) when matrix m already holds the result of
// the same (model version, eigen slot, edge length) computation; otherwise
// it records the new triple, bumps the matrix version, and returns true.
// Callers must invoke it in request order and compute exactly the matrices
// it admits.
//
//beagle:noalloc
func (t *Tracker) ShouldComputeMatrix(m, eigenSlot int, length float64) bool {
	if t == nil {
		return true
	}
	e := &t.mats[m]
	if e.valid && e.model == t.modelVer && e.eigen == eigenSlot && e.length == length {
		t.matHits.Add(1)
		return false
	}
	e.valid = true
	e.model = t.modelVer
	e.eigen = eigenSlot
	e.length = length
	t.matrixVer[m]++
	t.matMisses.Add(1)
	return true
}

// ShouldComputeOp decides one partials operation. It returns false (skip)
// when dest already holds the result of an identical operation over inputs
// whose versions are unchanged, and the scale buffer it writes, if any,
// still holds its factors; otherwise it records the new signature,
// bumps the destination's partials version (and the written scale buffer's
// version, when scaleWrite is not None), and returns true.
//
// Callers must invoke it in dependency order — a child's executed update
// must bump its version before any dependent operation is decided — and
// must execute exactly the operations it admits.
//
//beagle:noalloc
func (t *Tracker) ShouldComputeOp(dest, child1, child1Mat, child2, child2Mat, scaleWrite, scaleRead int) bool {
	if t == nil {
		return true
	}
	var scaleReadVer uint64
	if scaleRead != None {
		scaleReadVer = t.scaleVer[scaleRead]
	}
	s := &t.sigs[dest]
	if s.valid &&
		s.child1 == child1 && s.child1Mat == child1Mat &&
		s.child2 == child2 && s.child2Mat == child2Mat &&
		s.scaleWrite == scaleWrite && s.scaleRead == scaleRead &&
		s.child1Ver == t.partialsVer[child1] && s.mat1Ver == t.matrixVer[child1Mat] &&
		s.child2Ver == t.partialsVer[child2] && s.mat2Ver == t.matrixVer[child2Mat] &&
		s.scaleReadVer == scaleReadVer &&
		(scaleWrite == None || s.scaleWriteVer == t.scaleVer[scaleWrite]) {
		t.opHits.Add(1)
		return false
	}
	s.valid = true
	s.child1 = child1
	s.child1Mat = child1Mat
	s.child2 = child2
	s.child2Mat = child2Mat
	s.scaleWrite = scaleWrite
	s.scaleRead = scaleRead
	s.child1Ver = t.partialsVer[child1]
	s.mat1Ver = t.matrixVer[child1Mat]
	s.child2Ver = t.partialsVer[child2]
	s.mat2Ver = t.matrixVer[child2Mat]
	s.scaleReadVer = scaleReadVer
	t.partialsVer[dest]++
	if scaleWrite != None {
		t.scaleVer[scaleWrite]++
		s.scaleWriteVer = t.scaleVer[scaleWrite]
	}
	t.opMisses.Add(1)
	return true
}

// Stats is a point-in-time snapshot of a tracker's counters. Hits count
// skipped work; misses count admitted (executed) work; invalidations count
// external mutations that dirtied tracked state.
type Stats struct {
	// Enabled reports whether the instance tracks reuse at all; the zero
	// value (reuse off) has it false.
	Enabled bool `json:"enabled"`
	// OpHits and OpMisses count skipped and executed partials operations.
	OpHits   uint64 `json:"op_hits"`
	OpMisses uint64 `json:"op_misses"`
	// MatrixHits and MatrixMisses count skipped and executed transition-
	// matrix updates.
	MatrixHits   uint64 `json:"matrix_hits"`
	MatrixMisses uint64 `json:"matrix_misses"`
	// Invalidations counts setter-driven cache invalidations.
	Invalidations uint64 `json:"invalidations"`
}

// OpHitRate is the fraction of submitted partials operations that were
// skipped, or 0 before any submission.
func (s Stats) OpHitRate() float64 {
	total := s.OpHits + s.OpMisses
	if total == 0 {
		return 0
	}
	return float64(s.OpHits) / float64(total)
}

// MatrixHitRate is the fraction of requested matrix updates that were
// skipped, or 0 before any request.
func (s Stats) MatrixHitRate() float64 {
	total := s.MatrixHits + s.MatrixMisses
	if total == 0 {
		return 0
	}
	return float64(s.MatrixHits) / float64(total)
}

// Stats snapshots the counters; safe on nil (reports Enabled == false) and
// safe to call while another goroutine drives a sibling instance.
func (t *Tracker) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Enabled:       true,
		OpHits:        t.opHits.Load(),
		OpMisses:      t.opMisses.Load(),
		MatrixHits:    t.matHits.Load(),
		MatrixMisses:  t.matMisses.Load(),
		Invalidations: t.invalidations.Load(),
	}
}
