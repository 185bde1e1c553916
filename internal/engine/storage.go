package engine

import (
	"errors"
	"fmt"

	"gobeagle/internal/kernels"
	"gobeagle/internal/reuse"
	"gobeagle/internal/trace"
)

// ErrClosed is returned by every method of an engine after Close, whatever
// the backend.
var ErrClosed = errors.New("engine: engine is closed")

// Storage is the flexibly indexed buffer store behind every implementation,
// host or accelerator: partials, compact tip states, transition matrices,
// eigendecompositions, rate/weight/frequency vectors and scale buffers. It
// provides the full setter half of the Engine interface with validation and
// plans every operation batch (plan.go), so concrete engines only implement
// execution strategy. All public setters take float64 and convert to the
// engine precision T at this boundary, exactly as the BEAGLE C API does.
type Storage[T kernels.Real] struct {
	Cfg       Config
	Partials  [][]T
	TipStates [][]int32
	Matrices  [][]T
	Eigens    []*kernels.Eigen
	CatRates  []float64
	CatWts    []float64
	Freqs     []float64
	PatWts    []float64
	Scale     [][]float64
	// Reuse is the incremental re-evaluation tracker, nil unless
	// Cfg.Reuse. Every mutating setter below reports its invalidation to
	// it (all tracker methods are no-ops on nil), and DropUnchanged consults
	// it to skip unchanged work.
	Reuse *reuse.Tracker
	// Site is the per-pattern scratch every likelihood integration writes
	// (integrate.go): after one it holds the site log likelihoods. It is
	// sized to the pattern count and valid until the next integration.
	Site []float64

	in     integration[T]
	mx     matrixQueue
	cp     *compactStore[T] // compact subtrees, nil unless EnableCompact
	closed bool
	// factors is ScaleFactors' list of the buffers it returns.
	factors [][]float64
	// resolved holds the current batch's resolved operations between
	// batches, so resubmitting a schedule (including the reuse filter's skip
	// path) allocates nothing once warmed up.
	resolved []ResolvedOp[T]
	// epoch numbers Resolve's batches: written[b] == epoch marks b as the
	// destination of an earlier listed operation while a batch validates.
	epoch   uint64
	written []uint64
}

// NewStorage allocates a buffer store for the given configuration; the
// configuration must already be validated.
func NewStorage[T kernels.Real](cfg Config) *Storage[T] {
	s := &Storage[T]{
		Cfg:       cfg,
		Partials:  make([][]T, cfg.PartialsBuffers),
		TipStates: make([][]int32, cfg.TipCount),
		Matrices:  make([][]T, cfg.MatrixBuffers),
		Eigens:    make([]*kernels.Eigen, cfg.EigenBuffers),
		CatRates:  make([]float64, cfg.Dims.CategoryCount),
		CatWts:    make([]float64, cfg.Dims.CategoryCount),
		Freqs:     make([]float64, cfg.Dims.StateCount),
		PatWts:    make([]float64, cfg.Dims.PatternCount),
		Scale:     make([][]float64, cfg.ScaleBuffers),
		Site:      make([]float64, cfg.Dims.PatternCount),
		written:   make([]uint64, cfg.PartialsBuffers),
		mx:        matrixQueue{at: make([]int, cfg.MatrixBuffers)},
	}
	s.bindIntegration()
	s.mx.body = s.matrixBody
	// Sensible defaults: unit rates, uniform weights and frequencies,
	// weight-1 patterns.
	for i := range s.CatRates {
		s.CatRates[i] = 1
		s.CatWts[i] = 1 / float64(cfg.Dims.CategoryCount)
	}
	for i := range s.Freqs {
		s.Freqs[i] = 1 / float64(cfg.Dims.StateCount)
	}
	for i := range s.PatWts {
		s.PatWts[i] = 1
	}
	if cfg.Reuse {
		s.Reuse = reuse.New(cfg.PartialsBuffers, cfg.MatrixBuffers, cfg.ScaleBuffers)
	}
	return s
}

// Close marks the store closed: every later call on it returns ErrClosed
// rather than touching buffers the backend may have released. Closing twice
// is fine.
func (s *Storage[T]) Close() error {
	s.closed = true
	return nil
}

// index is the store's one bounds check, and where a closed store refuses
// every indexed access.
func (s *Storage[T]) index(what string, i, n int) error {
	if s.closed {
		return ErrClosed
	}
	if i < 0 || i >= n {
		return fmt.Errorf("engine: %s %d out of range [0,%d)", what, i, n)
	}
	return nil
}

func (s *Storage[T]) checkPartialsIndex(buf int) error {
	return s.index("partials buffer", buf, len(s.Partials))
}

func (s *Storage[T]) checkMatrixIndex(m int) error {
	return s.index("matrix buffer", m, len(s.Matrices))
}

func (s *Storage[T]) checkScaleIndex(b int) error {
	return s.index("scale buffer", b, len(s.Scale))
}

// convert converts values arriving over the float64 API to the engine
// precision, or back.
func convert[To, From kernels.Real](values []From) []To {
	out := make([]To, len(values))
	for i, v := range values {
		out[i] = To(v)
	}
	return out
}

// SetTipStates stores compact states for tip buffer buf.
func (s *Storage[T]) SetTipStates(buf int, states []int) error {
	if err := s.index("tip buffer", buf, s.Cfg.TipCount); err != nil {
		return err
	}
	if len(states) != s.Cfg.Dims.PatternCount {
		return fmt.Errorf("engine: tip states length %d, want %d", len(states), s.Cfg.Dims.PatternCount)
	}
	out := make([]int32, len(states))
	for i, st := range states {
		if st < 0 {
			return fmt.Errorf("engine: negative state %d at pattern %d", st, i)
		}
		// Any value ≥ StateCount is normalized to the gap code StateCount.
		if st > s.Cfg.Dims.StateCount {
			st = s.Cfg.Dims.StateCount
		}
		out[i] = int32(st)
	}
	s.TipStates[buf] = out
	// The states are the tip's value now: partials set before would
	// otherwise linger, readable and migrated but never used.
	s.Partials[buf] = nil
	s.bumpClasses(buf)
	s.Reuse.InvalidatePartials(buf)
	return nil
}

// SetTipPartials stores per-pattern partials for a tip, replicating across
// categories.
func (s *Storage[T]) SetTipPartials(buf int, partials []float64) error {
	if err := s.index("tip buffer", buf, s.Cfg.TipCount); err != nil {
		return err
	}
	d := s.Cfg.Dims
	if len(partials) != d.PatternCount*d.StateCount {
		return fmt.Errorf("engine: tip partials length %d, want %d", len(partials), d.PatternCount*d.StateCount)
	}
	full := make([]T, d.PartialsLen())
	for c := 0; c < d.CategoryCount; c++ {
		off := c * d.PatternCount * d.StateCount
		for i, v := range partials {
			full[off+i] = T(v)
		}
	}
	s.Partials[buf] = full
	s.TipStates[buf] = nil // expanded representation wins
	s.bumpClasses(buf)
	s.Reuse.InvalidatePartials(buf)
	return nil
}

// SetPartials stores a full partials buffer.
func (s *Storage[T]) SetPartials(buf int, partials []float64) error {
	if err := s.checkPartialsIndex(buf); err != nil {
		return err
	}
	if len(partials) != s.Cfg.Dims.PartialsLen() {
		return fmt.Errorf("engine: partials length %d, want %d", len(partials), s.Cfg.Dims.PartialsLen())
	}
	s.Partials[buf] = convert[T](partials)
	if buf < s.Cfg.TipCount {
		s.TipStates[buf] = nil
	}
	s.bumpClasses(buf)
	s.Reuse.InvalidatePartials(buf)
	return nil
}

// GetPartials retrieves a partials buffer as float64, a compact node
// expanded.
func (s *Storage[T]) GetPartials(buf int) ([]float64, error) {
	if err := s.checkPartialsIndex(buf); err != nil {
		return nil, err
	}
	if rec := s.compactLive(buf); rec != nil {
		return convert[float64](s.expand(rec, nil)), nil
	}
	if buf < s.Cfg.TipCount && s.TipStates[buf] != nil {
		return nil, fmt.Errorf("engine: buffer %d holds compact tip states, not partials", buf)
	}
	if s.Partials[buf] == nil {
		return nil, fmt.Errorf("engine: partials buffer %d has not been computed or set", buf)
	}
	return convert[float64](s.Partials[buf]), nil
}

// SetEigenDecomposition stores a decomposition in an eigen slot.
func (s *Storage[T]) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	if err := s.index("eigen slot", slot, len(s.Eigens)); err != nil {
		return err
	}
	n := s.Cfg.Dims.StateCount
	if len(values) != n || len(vectors) != n*n || len(inverseVectors) != n*n {
		return fmt.Errorf("engine: eigen decomposition sizes %d/%d/%d, want %d/%d/%d",
			len(values), len(vectors), len(inverseVectors), n, n*n, n*n)
	}
	s.Eigens[slot] = &kernels.Eigen{
		StateCount:     n,
		Values:         append([]float64(nil), values...),
		Vectors:        append([]float64(nil), vectors...),
		InverseVectors: append([]float64(nil), inverseVectors...),
	}
	s.Reuse.InvalidateModel()
	return nil
}

// setModelVector overwrites one of the fixed-length model vectors.
func (s *Storage[T]) setModelVector(dst, src []float64, what string) error {
	if s.closed {
		return ErrClosed
	}
	if len(src) != len(dst) {
		return fmt.Errorf("engine: %d %s, want %d", len(src), what, len(dst))
	}
	copy(dst, src)
	s.Reuse.InvalidateModel()
	return nil
}

// SetCategoryRates sets per-category relative rates.
func (s *Storage[T]) SetCategoryRates(rates []float64) error {
	return s.setModelVector(s.CatRates, rates, "category rates")
}

// SetCategoryWeights sets per-category mixture weights.
func (s *Storage[T]) SetCategoryWeights(weights []float64) error {
	return s.setModelVector(s.CatWts, weights, "category weights")
}

// SetStateFrequencies sets the stationary distribution π.
func (s *Storage[T]) SetStateFrequencies(freqs []float64) error {
	return s.setModelVector(s.Freqs, freqs, "frequencies")
}

// SetPatternWeights sets per-pattern multiplicities.
func (s *Storage[T]) SetPatternWeights(weights []float64) error {
	return s.setModelVector(s.PatWts, weights, "pattern weights")
}

// SetTransitionMatrix stores an explicit transition matrix buffer.
func (s *Storage[T]) SetTransitionMatrix(matrix int, values []float64) error {
	if err := s.checkMatrixIndex(matrix); err != nil {
		return err
	}
	if len(values) != s.Cfg.Dims.MatrixLen() {
		return fmt.Errorf("engine: matrix length %d, want %d", len(values), s.Cfg.Dims.MatrixLen())
	}
	s.Matrices[matrix] = convert[T](values)
	s.Reuse.InvalidateMatrix(matrix)
	return nil
}

// GetTransitionMatrix retrieves a matrix buffer as float64.
func (s *Storage[T]) GetTransitionMatrix(matrix int) ([]float64, error) {
	m, err := s.Matrix(matrix)
	if err != nil {
		return nil, err
	}
	return convert[float64](m), nil
}

// Matrix returns a matrix buffer something is about to read; it must have
// been computed or set.
func (s *Storage[T]) Matrix(matrix int) ([]T, error) {
	if err := s.checkMatrixIndex(matrix); err != nil {
		return nil, err
	}
	if s.Matrices[matrix] == nil {
		return nil, fmt.Errorf("engine: matrix buffer %d has not been computed or set", matrix)
	}
	return s.Matrices[matrix], nil
}

// matrixRequest validates what UpdateTransitionMatrices and
// UpdateTransitionDerivatives share: a filled eigen slot, and one
// non-negative edge length per in-range matrix of every list.
func (s *Storage[T]) matrixRequest(eigenSlot int, edgeLengths []float64, lists ...[]int) (*kernels.Eigen, error) {
	if err := s.index("eigen slot", eigenSlot, len(s.Eigens)); err != nil {
		return nil, err
	}
	if s.Eigens[eigenSlot] == nil {
		return nil, fmt.Errorf("engine: eigen slot %d is empty", eigenSlot)
	}
	for _, list := range lists {
		if len(list) != len(edgeLengths) {
			return nil, fmt.Errorf("engine: %d matrices but %d edge lengths", len(list), len(edgeLengths))
		}
		for _, m := range list {
			if err := s.checkMatrixIndex(m); err != nil {
				return nil, err
			}
		}
	}
	for _, t := range edgeLengths {
		if t < 0 {
			return nil, fmt.Errorf("engine: negative edge length %v", t)
		}
	}
	return s.Eigens[eigenSlot], nil
}

// MatrixRunner is the one step of a matrix request a backend on the host
// supplies: it runs body over the queued matrices [0, n), as one range or as
// disjoint ranges concurrently, and returns when all have run. Every range
// computes each of its matrices alone, so every runner returns the same bits.
type MatrixRunner func(n int, body func(lo, hi int))

// matrixQueue is the matrices a host UpdateTransitionMatrices call computes:
// the backend's MatrixRunner (nil runs the body inline), the body, bound once
// so handing it on allocates nothing, and the call's eigendecomposition and
// queue — each matrix once, with its last listed edge length, at[m] one past
// its place while the call runs and 0 otherwise.
type matrixQueue struct {
	run  MatrixRunner
	body func(lo, hi int)
	e    *kernels.Eigen
	ms   []int
	ts   []float64
	at   []int
}

// SetMatrixRunner makes run the way the store's host matrix requests compute
// their matrices; without one they are computed inline, in request order.
func (s *Storage[T]) SetMatrixRunner(run MatrixRunner) { s.mx.run = run }

// UpdateTransitionMatrices computes the listed matrices from an eigen slot
// on the host: the store decides which to compute and queues them, and the
// backend's MatrixRunner computes the queue.
func (s *Storage[T]) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	return s.UpdateMatricesWith(eigenSlot, matrices, edgeLengths, s.queueMatrix)
}

// queueMatrix is the host's compute step: it allocates matrix m if needed
// and queues it. A matrix listed twice is computed once, from its last edge
// length, which leaves what computing both in order would.
func (s *Storage[T]) queueMatrix(m int, e *kernels.Eigen, edgeLength float64) error {
	q := &s.mx
	if s.Matrices[m] == nil {
		s.Matrices[m] = make([]T, s.Cfg.Dims.MatrixLen())
	}
	if k := q.at[m]; k > 0 {
		q.ts[k-1] = edgeLength
		return nil
	}
	q.e, q.ms, q.ts = e, append(q.ms, m), append(q.ts, edgeLength)
	q.at[m] = len(q.ms)
	return nil
}

// runMatrices computes the queued matrices, if any, and empties the queue.
func (s *Storage[T]) runMatrices() {
	q := &s.mx
	if len(q.ms) == 0 {
		return
	}
	if q.run == nil {
		q.body(0, len(q.ms))
	} else {
		q.run(len(q.ms), q.body)
	}
	for _, m := range q.ms {
		q.at[m] = 0
	}
	q.e, q.ms, q.ts = nil, q.ms[:0], q.ts[:0]
}

// matrixBody computes queued matrices [lo, hi).
func (s *Storage[T]) matrixBody(lo, hi int) {
	q := &s.mx
	for i := lo; i < hi; i++ {
		kernels.UpdateTransitionMatrix(s.Matrices[q.ms[i]], q.e, q.ts[i], s.CatRates)
	}
}

// UpdateMatricesWith is UpdateTransitionMatrices with the computation of one
// matrix left to the backend — the one step of the store an accelerator
// replaces, because it computes matrices in a device kernel. compute must
// leave Matrices[m] holding P(rate_c·edgeLength) for every category, or
// queue m (queueMatrix), which this call computes before it returns; the
// request validation, the content-addressed reuse decision and the span
// stay here.
func (s *Storage[T]) UpdateMatricesWith(eigenSlot int, matrices []int, edgeLengths []float64,
	compute func(m int, e *kernels.Eigen, edgeLength float64) error) error {
	e, err := s.matrixRequest(eigenSlot, edgeLengths, matrices)
	if err != nil {
		return err
	}
	start, on := s.Cfg.Trace.Begin()
	computed := 0
	for i, m := range matrices {
		// Content-addressed reuse: the matrix already holds the result of
		// this exact (model, eigen slot, edge length) computation.
		if !s.Reuse.ShouldComputeMatrix(m, eigenSlot, edgeLengths[i]) {
			continue
		}
		if err := compute(m, e, edgeLengths[i]); err != nil {
			return err
		}
		computed++
	}
	s.runMatrices()
	if on {
		s.Cfg.Trace.End(trace.Span{Kind: trace.KindMatrices, Lane: int32(s.Cfg.TraceLane), Arg0: int64(computed)}, start)
	}
	return nil
}

// UpdateTransitionDerivatives computes derivative matrices from an eigen
// slot into ordinary matrix buffers, as BEAGLE's derivative indices do.
func (s *Storage[T]) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	lists := [][]int{d1Matrices, d2Matrices}
	if d2Matrices == nil {
		lists = lists[:1]
	}
	e, err := s.matrixRequest(eigenSlot, edgeLengths, lists...)
	if err != nil {
		return err
	}
	start, on := s.Cfg.Trace.Begin()
	// Derivative kernels overwrite ordinary matrix buffers, so any
	// content-addressed transition-matrix entry for them is stale.
	target := func(m int) []T {
		if s.Matrices[m] == nil {
			s.Matrices[m] = make([]T, s.Cfg.Dims.MatrixLen())
		}
		s.Reuse.InvalidateMatrix(m)
		return s.Matrices[m]
	}
	for i, m := range d1Matrices {
		var d2 []T
		if d2Matrices != nil {
			d2 = target(d2Matrices[i])
		}
		kernels.UpdateTransitionDerivatives(target(m), d2, e, edgeLengths[i], s.CatRates)
	}
	if on {
		s.Cfg.Trace.End(trace.Span{Kind: trace.KindDerivatives, Lane: int32(s.Cfg.TraceLane), Arg0: int64(len(d1Matrices))}, start)
	}
	return nil
}

// ResetScaleFactors zeroes (and allocates if needed) a scale buffer.
func (s *Storage[T]) ResetScaleFactors(scaleBuf int) error {
	buf, err := s.ScaleWriteTarget(scaleBuf)
	if err != nil {
		return err
	}
	for i := range buf {
		buf[i] = 0
	}
	s.Reuse.InvalidateScale(scaleBuf)
	return nil
}

// ScaleFactors validates the scale buffers AccumulateScaleFactors sums and
// returns them with the cumulative buffer they are added into, allocated if
// needed. The list of factors is the store's scratch, valid until the next
// call.
func (s *Storage[T]) ScaleFactors(scaleBufs []int, cumBuf int) (factors [][]float64, cum []float64, err error) {
	if err := s.checkScaleIndex(cumBuf); err != nil {
		return nil, nil, err
	}
	factors = s.factors[:0]
	for _, b := range scaleBufs {
		if b == cumBuf {
			return nil, nil, fmt.Errorf("engine: cumulative scale buffer %d is also listed as a factor", cumBuf)
		}
		f, err := s.writtenScale(b)
		if err != nil {
			return nil, nil, err
		}
		factors = append(factors, f)
	}
	s.factors = factors
	cum, err = s.ScaleWriteTarget(cumBuf)
	return factors, cum, err
}

// AccumulateScaleFactors sums the listed scale buffers into cumBuf.
func (s *Storage[T]) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	factors, cum, err := s.ScaleFactors(scaleBufs, cumBuf)
	if err != nil {
		return err
	}
	kernels.AccumulateScaleFactors(cum, factors, 0, s.Cfg.Dims.PatternCount)
	s.Reuse.InvalidateScale(cumBuf)
	return nil
}

// ScaleWriteTarget returns (allocating if needed) the scale buffer an
// operation rescales into.
func (s *Storage[T]) ScaleWriteTarget(scaleBuf int) ([]float64, error) {
	if err := s.checkScaleIndex(scaleBuf); err != nil {
		return nil, err
	}
	if s.Scale[scaleBuf] == nil {
		s.Scale[scaleBuf] = make([]float64, s.Cfg.Dims.PatternCount)
	}
	return s.Scale[scaleBuf], nil
}

// writtenScale returns a scale buffer something is about to read.
func (s *Storage[T]) writtenScale(scaleBuf int) ([]float64, error) {
	if err := s.checkScaleIndex(scaleBuf); err != nil {
		return nil, err
	}
	if s.Scale[scaleBuf] == nil {
		return nil, fmt.Errorf("engine: scale buffer %d has not been written", scaleBuf)
	}
	return s.Scale[scaleBuf], nil
}

// cumulativeScale returns the scale buffer for likelihood integration, or
// nil when cumScaleBuf is None.
func (s *Storage[T]) cumulativeScale(cumScaleBuf int) ([]float64, error) {
	if cumScaleBuf == None {
		return nil, nil
	}
	return s.writtenScale(cumScaleBuf)
}

// OperandKind classifies an operation child as compact states or partials.
type OperandKind int

// Operand kinds.
const (
	OperandPartials OperandKind = iota
	OperandStates
)

// ChildOperand resolves an operation child buffer: compact tip states when
// they were set, otherwise the partials buffer. It validates that the buffer
// holds data.
func (s *Storage[T]) ChildOperand(buf int) (OperandKind, []int32, []T, error) {
	if err := s.checkPartialsIndex(buf); err != nil {
		return 0, nil, nil, err
	}
	states, partials := s.operand(buf)
	switch {
	case states != nil:
		return OperandStates, states, nil, nil
	case partials == nil:
		return 0, nil, nil, fmt.Errorf("engine: operand buffer %d holds no data", buf)
	}
	return OperandPartials, nil, partials, nil
}

// OpMatrices validates and returns the two matrices of an operation.
func (s *Storage[T]) OpMatrices(op Operation) (m1, m2 []T, err error) {
	if m1, err = s.Matrix(op.Child1Mat); err != nil {
		return nil, nil, err
	}
	if m2, err = s.Matrix(op.Child2Mat); err != nil {
		return nil, nil, err
	}
	return m1, m2, nil
}
