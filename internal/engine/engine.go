// Package engine defines the internal contract every library implementation
// fulfils — the Go analogue of BEAGLE's implementation base-code layer
// (Fig. 1/Fig. 3 of the paper) — and the one base every implementation is
// built on. The public API package selects and drives an Engine; the cpuimpl
// package provides the serial, SSE-style and threaded models, and the
// accelimpl package provides the accelerator model running on the simulated
// CUDA/OpenCL device framework.
//
// Storage is the only buffer store and the only place a batch is planned:
// both backends embed it and inherit its setters, getters, index and
// occupancy checks, pattern migration, use-after-Close refusal (ErrClosed),
// the single validate-and-resolve pass over an operation list (Resolve) and
// the single reuse filter (DropUnchanged). A backend adds how resolved
// operations execute — kernel family and threading in cpuimpl; kernel
// launches, device-memory reservation and transfer charges in accelimpl — and
// the store knows nothing of either. The one seam is UpdateMatricesWith,
// because an accelerator computes a transition matrix in a device kernel.
// Resolve and DropUnchanged are separate calls so that a backend with its own
// reason to refuse a batch (accelimpl: the destinations Resolve allocated do
// not fit in device memory) can do so after validation and before the reuse
// tracker records the batch as computed.
//
// WorkerPool is the one executor of concurrent work: the CPU pool modes run
// their phases on it, and every accelerator engine owns one that runs its
// work-groups.
//
// As in the BEAGLE C API, all values cross this boundary as float64; an
// implementation built for single precision converts at the edge.
package engine

import (
	"errors"
	"fmt"

	"gobeagle/internal/kernels"
	"gobeagle/internal/telemetry"
	"gobeagle/internal/trace"
)

// None marks an unused index field in an Operation (no rescaling, for
// example), matching BEAGLE's BEAGLE_OP_NONE.
const None = -1

// Operation describes a single partial-likelihoods update in buffer indices,
// mirroring the BEAGLE operation structure: destination partials, optional
// scale buffer to write (rescale) or read, and the two child buffers with
// their transition matrices. Child buffers smaller than the instance's
// compact-tip count refer to compact state buffers when those were set.
//
// Scaling fields follow BEAGLE's dynamic- and fixed-scaling modes.
// DestScaleWrite rescales the freshly computed destination: each pattern's
// partials are divided by their maximum and the log of that factor is
// written to the named scale buffer. DestScaleRead applies previously
// written factors instead of computing new ones: after the combine kernel,
// each pattern's partials are divided by exp(scale[p]) read from the named
// buffer, which must have been written (by an earlier operation's
// DestScaleWrite or by AccumulateScaleFactors) before this batch. When both
// are set, the read factors are applied first and the rescale then captures
// the residual magnitude.
type Operation struct {
	Dest           int
	DestScaleWrite int // scale buffer to rescale into, or None
	DestScaleRead  int // previously written scale buffer applied to the fresh destination, or None
	Child1         int
	Child1Mat      int
	Child2         int
	Child2Mat      int
}

// Config fixes the geometry of an instance at creation time, following
// beagleCreateInstance.
type Config struct {
	TipCount        int // number of tips (compact or partials buffers 0..TipCount-1)
	PartialsBuffers int // total partials buffers (tips + internals + extras)
	MatrixBuffers   int // transition matrix buffers
	EigenBuffers    int // eigendecomposition slots
	ScaleBuffers    int // per-pattern log-scale-factor buffers
	Dims            kernels.Dims
	SinglePrecision bool
	Threads         int  // worker threads for threaded implementations; 0 = GOMAXPROCS
	MinPatternsWork int  // threading threshold; 0 = implementation default
	WorkGroupSize   int  // accelerator work-group size in patterns; 0 = device default
	DisableFMA      bool // charge accelerators the no-FMA rate (Table IV ablation); results are unchanged
	// Reuse enables incremental re-evaluation: the implementation tracks
	// input versions per destination buffer and skips UpdatePartials
	// operations and UpdateTransitionMatrices entries whose inputs are
	// unchanged since the last identical request (see internal/reuse).
	Reuse bool
	// Telemetry, when non-nil, receives per-kernel counters, effective-flop
	// accounting and scheduler level traces from the implementation. A nil
	// collector (or a disabled one) must cost nothing on the hot paths.
	Telemetry *telemetry.Collector
	// Trace, when non-nil, receives timeline spans (scheduler batches and
	// levels, worker tasks, device kernel launches and transfers, multi-
	// device barriers and migrations). Unlike Telemetry, a parent engine
	// shares its tracer with its sub-engines — spans carry lanes, so
	// concurrent backends do not double count, they interleave. A nil or
	// disabled tracer must cost nothing on the hot paths.
	Trace *trace.Tracer
	// TraceLane attributes this engine's spans to one lane (thread track)
	// of the trace: multi-device parents assign each backend its index.
	TraceLane int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	d := c.Dims
	switch {
	case c.TipCount < 2:
		return errors.New("engine: need at least two tips")
	case c.PartialsBuffers < c.TipCount:
		return fmt.Errorf("engine: %d partials buffers cannot hold %d tips", c.PartialsBuffers, c.TipCount)
	case c.MatrixBuffers < 1:
		return errors.New("engine: need at least one matrix buffer")
	case c.EigenBuffers < 1:
		return errors.New("engine: need at least one eigen buffer")
	case d.StateCount < 2:
		return errors.New("engine: need at least two states")
	case d.PatternCount < 1:
		return errors.New("engine: need at least one pattern")
	case d.CategoryCount < 1:
		return errors.New("engine: need at least one rate category")
	case c.ScaleBuffers < 0:
		return errors.New("engine: negative scale buffer count")
	case c.Threads < 0:
		return errors.New("engine: negative thread count")
	}
	return nil
}

// Engine is the implementation contract. Buffer indices follow BEAGLE
// conventions: partials buffers 0..PartialsBuffers-1 (indices below TipCount
// may instead hold compact tip states), matrices 0..MatrixBuffers-1, eigen
// slots 0..EigenBuffers-1, scale buffers 0..ScaleBuffers-1.
type Engine interface {
	// Name identifies the implementation, e.g. "CPU-threadpool" or
	// "OpenCL-x86".
	Name() string

	// SetTipStates stores compact states for a tip buffer (index <
	// TipCount). A state value ≥ StateCount denotes full ambiguity.
	SetTipStates(buf int, states []int) error
	// SetTipPartials stores expanded per-pattern partials for a tip.
	SetTipPartials(buf int, partials []float64) error
	// SetPartials stores a full partials buffer ([category][pattern][state]).
	SetPartials(buf int, partials []float64) error
	// GetPartials retrieves a partials buffer.
	GetPartials(buf int) ([]float64, error)

	// SetEigenDecomposition stores a spectral decomposition in an eigen slot.
	SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error
	// SetCategoryRates sets the relative rate of each category.
	SetCategoryRates(rates []float64) error
	// SetCategoryWeights sets the mixture weight of each category.
	SetCategoryWeights(weights []float64) error
	// SetStateFrequencies sets the stationary frequencies π.
	SetStateFrequencies(freqs []float64) error
	// SetPatternWeights sets per-pattern multiplicities.
	SetPatternWeights(weights []float64) error

	// SetTransitionMatrix stores an explicit matrix (all categories).
	SetTransitionMatrix(matrix int, values []float64) error
	// GetTransitionMatrix retrieves a matrix buffer.
	GetTransitionMatrix(matrix int) ([]float64, error)
	// UpdateTransitionMatrices computes P(rate_c·edgeLength) for each listed
	// matrix from the eigendecomposition in the given slot.
	UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error

	// UpdatePartials executes a list of partial-likelihoods operations in
	// order (data dependencies between listed operations are honored).
	UpdatePartials(ops []Operation) error

	// ResetScaleFactors zeroes a scale buffer.
	ResetScaleFactors(scaleBuf int) error
	// AccumulateScaleFactors sums the listed scale buffers into cumBuf,
	// which may not be one of them.
	AccumulateScaleFactors(scaleBufs []int, cumBuf int) error

	// CalculateRootLogLikelihoods integrates the root partials buffer over
	// categories, states and patterns; cumScaleBuf is a scale buffer index
	// or None.
	CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error)
	// CalculateEdgeLogLikelihoods integrates across one branch between a
	// parent-side and child-side partials buffer.
	CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error)
	// UpdateTransitionDerivatives computes first-derivative matrices
	// (dP/dt) into d1Matrices and, when d2Matrices is non-nil,
	// second-derivative matrices into d2Matrices, for the given branch
	// lengths, as beagleUpdateTransitionMatrices' derivative outputs do.
	UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error
	// CalculateEdgeDerivatives integrates across one branch and returns the
	// log likelihood together with its first and second derivatives with
	// respect to the branch length; d2Matrix may be None to skip the second
	// derivative.
	CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (lnL, d1, d2 float64, err error)
	// SiteLogLikelihoods returns per-pattern log likelihoods at the root.
	SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error)

	// Close releases implementation resources (worker pools, device
	// buffers). The engine must not be used afterwards.
	Close() error
}
