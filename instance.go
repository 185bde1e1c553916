package gobeagle

import (
	"errors"
	"fmt"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/trace"
)

// None marks an unused index argument (no rescaling, for example), matching
// BEAGLE_OP_NONE.
const None = engine.None

// Operation describes one partial-likelihoods update in buffer indices,
// mirroring the BEAGLE operation structure. Destination partials are
// computed from the two children's partials (or compact tip states)
// combined through their branch transition matrices. DestScaleWrite names a
// scale buffer to rescale the fresh destination into (or None).
// DestScaleRead names a previously written scale buffer whose factors are
// applied to the fresh destination (each pattern's partials divided by
// exp(scale[p]), BEAGLE's fixed-scaling read mode), or None; when both are
// set the read factors are applied first and the rescale then captures the
// residual magnitude.
type Operation struct {
	Destination    int
	DestScaleWrite int
	DestScaleRead  int
	Child1         int
	Child1Matrix   int
	Child2         int
	Child2Matrix   int
}

// Config fixes the geometry and implementation of an instance, following
// beagleCreateInstance.
type Config struct {
	// TipCount is the number of tips; buffers 0..TipCount-1 hold tip data
	// (compact states or partials).
	TipCount int
	// PartialsBuffers is the total number of partials buffers, at least
	// TipCount; a post-order evaluation needs one per node.
	PartialsBuffers int
	// MatrixBuffers is the number of transition matrix buffers.
	MatrixBuffers int
	// EigenBuffers is the number of eigendecomposition slots.
	EigenBuffers int
	// ScaleBuffers is the number of per-pattern scale-factor buffers
	// (0 disables rescaling support).
	ScaleBuffers int
	// StateCount is the character state space: 4 nucleotide, 20 amino
	// acid, 61 codon.
	StateCount int
	// PatternCount is the number of unique site patterns.
	PatternCount int
	// CategoryCount is the number of among-site rate categories.
	CategoryCount int
	// ResourceID selects an entry of ResourceList; 0 is the host CPU.
	ResourceID int
	// Flags select precision, vectorization, threading and kernel options.
	// At most one FlagThreading* flag may be set; FlagThreadingThreadPoolHybrid
	// selects pattern slabs on the persistent pool with no pattern threshold.
	Flags Flags
	// Threads bounds CPU worker threads (0 = all hardware threads).
	Threads int
	// WorkGroupSize overrides the accelerator work-group size in patterns
	// (0 = implementation default; Table V explores this parameter).
	WorkGroupSize int
	// MinPatternsForThreading overrides the minimum pattern count for
	// pattern-level CPU threading (0 = the paper's 512).
	MinPatternsForThreading int
	// RebalanceInterval is the number of UpdatePartials batches between
	// adaptive rebalance checks on multi-device instances created with
	// FlagRebalance (0 = the default interval). Ignored otherwise.
	RebalanceInterval int
}

// Instance is a likelihood-computation instance bound to one resource and
// implementation. Instances are not safe for concurrent use; create one
// instance per goroutine (as client programs create one per data partition).
type Instance struct {
	cfg Config
	eng engine.Engine
	rsc *Resource
	tr  *trace.Tracer
	// impl and strategy are the labels Stats reports, fixed at creation.
	impl, strategy string

	// scratch is the UpdatePartials conversion buffer, reused across calls
	// so the submission hot path performs no per-call allocation (MCMC
	// samplers resubmit the peel schedule every proposal).
	scratch []engine.Operation
}

// NewInstance creates an instance on the selected resource. The
// implementation is chosen from the resource and flags through the
// implementation registry, and the instance is handed to it for its
// lifetime, as in BEAGLE's implementation-management layer.
func NewInstance(cfg Config) (*Instance, error) {
	resources := ResourceList()
	if cfg.ResourceID < 0 || cfg.ResourceID >= len(resources) {
		return nil, fmt.Errorf("gobeagle: resource %d out of range [0,%d)", cfg.ResourceID, len(resources))
	}
	rsc := resources[cfg.ResourceID]
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := buildEngine(ecfg, rsc, cfg.Flags)
	if err != nil {
		return nil, err
	}
	strategy := strategyName(cfg.Flags)
	if rsc.Device() != nil {
		strategy = "device"
	}
	return &Instance{cfg: cfg, eng: eng, rsc: rsc, tr: ecfg.Trace, impl: eng.Name(), strategy: strategy}, nil
}

// engineConfig checks the instance flags and maps cfg to the engine
// configuration every constructor builds on, with a fresh recorder.
func engineConfig(cfg Config) (engine.Config, error) {
	if t := cfg.Flags & threadingFlags; t&(t-1) != 0 {
		return engine.Config{}, errors.New("gobeagle: at most one threading flag may be set")
	}
	return engine.Config{
		TipCount:        cfg.TipCount,
		PartialsBuffers: cfg.PartialsBuffers,
		MatrixBuffers:   cfg.MatrixBuffers,
		EigenBuffers:    cfg.EigenBuffers,
		ScaleBuffers:    cfg.ScaleBuffers,
		Dims: kernels.Dims{
			StateCount:    cfg.StateCount,
			PatternCount:  cfg.PatternCount,
			CategoryCount: cfg.CategoryCount,
		},
		SinglePrecision: cfg.Flags&FlagPrecisionSingle != 0,
		Threads:         cfg.Threads,
		MinPatternsWork: cfg.MinPatternsForThreading,
		WorkGroupSize:   cfg.WorkGroupSize,
		DisableFMA:      cfg.Flags&FlagDisableFMA != 0,
		Reuse:           cfg.Flags&FlagReuse != 0,
		Trace:           newInstanceTracer(cfg.Flags),
	}, nil
}

// Implementation returns the name of the selected implementation, e.g.
// "CPU-threadpool" or "OpenCL-GPU: Radeon R9 Nano".
func (in *Instance) Implementation() string { return in.eng.Name() }

// Resource returns the resource the instance runs on.
func (in *Instance) Resource() *Resource { return in.rsc }

// Config returns the instance's creation configuration.
func (in *Instance) Config() Config { return in.cfg }

// Finalize releases the instance's resources (worker pools, device
// buffers). Finalize is idempotent; computation methods called afterwards
// return an error instead of panicking.
func (in *Instance) Finalize() error { return in.eng.Close() }

// DeviceQueue returns the command queue of an accelerator-backed instance
// (exposing launch counts, transfer volumes and the modeled device clock for
// benchmark instrumentation), or nil for host-CPU implementations.
func (in *Instance) DeviceQueue() *device.Queue {
	type queueHolder interface{ Queue() *device.Queue }
	if qh, ok := in.eng.(queueHolder); ok {
		return qh.Queue()
	}
	return nil
}

// SetTipStates stores compact states for tip buffer buf (values ≥
// StateCount denote full ambiguity).
func (in *Instance) SetTipStates(buf int, states []int) error {
	return in.eng.SetTipStates(buf, states)
}

// SetTipPartials stores per-pattern partial likelihoods for a tip
// (PatternCount·StateCount values), for ambiguous or uncertain data.
func (in *Instance) SetTipPartials(buf int, partials []float64) error {
	return in.eng.SetTipPartials(buf, partials)
}

// SetPartials stores a full partials buffer
// (CategoryCount·PatternCount·StateCount values).
func (in *Instance) SetPartials(buf int, partials []float64) error {
	return in.eng.SetPartials(buf, partials)
}

// GetPartials retrieves a partials buffer.
func (in *Instance) GetPartials(buf int) ([]float64, error) {
	return in.eng.GetPartials(buf)
}

// SetEigenDecomposition stores a rate-matrix decomposition
// Q = V·diag(values)·V⁻¹ in an eigen slot; vectors and inverseVectors are
// row-major StateCount×StateCount.
func (in *Instance) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	return in.eng.SetEigenDecomposition(slot, values, vectors, inverseVectors)
}

// SetCategoryRates sets the relative substitution rate of each category.
func (in *Instance) SetCategoryRates(rates []float64) error {
	return in.eng.SetCategoryRates(rates)
}

// SetCategoryWeights sets the mixture weight of each rate category.
func (in *Instance) SetCategoryWeights(weights []float64) error {
	return in.eng.SetCategoryWeights(weights)
}

// SetStateFrequencies sets the stationary state frequencies π.
func (in *Instance) SetStateFrequencies(freqs []float64) error {
	return in.eng.SetStateFrequencies(freqs)
}

// SetPatternWeights sets per-pattern multiplicities (site counts).
func (in *Instance) SetPatternWeights(weights []float64) error {
	return in.eng.SetPatternWeights(weights)
}

// SetTransitionMatrix stores an explicit transition matrix
// (CategoryCount·StateCount·StateCount values).
func (in *Instance) SetTransitionMatrix(matrix int, values []float64) error {
	return in.eng.SetTransitionMatrix(matrix, values)
}

// GetTransitionMatrix retrieves a transition matrix buffer.
func (in *Instance) GetTransitionMatrix(matrix int) ([]float64, error) {
	return in.eng.GetTransitionMatrix(matrix)
}

// UpdateTransitionMatrices computes P(rate_c·edgeLength) for each listed
// matrix buffer from the decomposition in eigenSlot.
func (in *Instance) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	return in.eng.UpdateTransitionMatrices(eigenSlot, matrices, edgeLengths)
}

// UpdatePartials executes a list of partial-likelihoods operations in
// order; operations whose children are destinations of earlier operations
// in the same list see the updated values. On instances created with
// FlagReuse, operations whose inputs are unchanged since they last produced
// their destination are skipped (see ReuseStats).
//
//beagle:noalloc
func (in *Instance) UpdatePartials(ops []Operation) error {
	eops := in.opScratch(len(ops))
	for i, op := range ops {
		eops[i] = engine.Operation{
			Dest:           op.Destination,
			DestScaleWrite: op.DestScaleWrite,
			DestScaleRead:  op.DestScaleRead,
			Child1:         op.Child1,
			Child1Mat:      op.Child1Matrix,
			Child2:         op.Child2,
			Child2Mat:      op.Child2Matrix,
		}
	}
	return in.eng.UpdatePartials(eops)
}

// opScratch returns the instance's conversion buffer with length n, growing
// the backing array only when a larger batch than ever before is submitted;
// steady-state resubmissions reuse the previous array.
func (in *Instance) opScratch(n int) []engine.Operation {
	if cap(in.scratch) < n {
		in.scratch = make([]engine.Operation, n)
	}
	return in.scratch[:n]
}

// ResetScaleFactors zeroes a scale buffer.
func (in *Instance) ResetScaleFactors(scaleBuf int) error {
	return in.eng.ResetScaleFactors(scaleBuf)
}

// AccumulateScaleFactors sums the listed scale buffers into cumBuf, for use
// at likelihood integration. cumBuf may not be one of scaleBufs.
func (in *Instance) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	return in.eng.AccumulateScaleFactors(scaleBufs, cumBuf)
}

// CalculateRootLogLikelihoods integrates the root partials buffer over
// states, categories and patterns into the total log likelihood;
// cumScaleBuf is a scale buffer holding accumulated log scale factors, or
// None.
func (in *Instance) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	return in.eng.CalculateRootLogLikelihoods(rootBuf, cumScaleBuf)
}

// CalculateEdgeLogLikelihoods integrates across a single branch between a
// parent-side and a child-side partials buffer with the given transition
// matrix.
func (in *Instance) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	return in.eng.CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf)
}

// SiteLogLikelihoods returns the per-pattern log likelihoods at the root.
func (in *Instance) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	return in.eng.SiteLogLikelihoods(rootBuf, cumScaleBuf)
}

// UpdateTransitionDerivatives computes first-derivative transition matrices
// dP/dt into d1Matrices and, when d2Matrices is non-nil, second derivatives
// into d2Matrices, mirroring beagleUpdateTransitionMatrices' derivative
// outputs.
func (in *Instance) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	return in.eng.UpdateTransitionDerivatives(eigenSlot, d1Matrices, d2Matrices, edgeLengths)
}

// CalculateEdgeDerivatives integrates across one branch and returns the log
// likelihood with its first and second derivatives with respect to the
// branch length — the inputs to Newton-style branch-length optimization.
// d2Matrix may be None to skip the second derivative.
func (in *Instance) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (lnL, d1, d2 float64, err error) {
	return in.eng.CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf)
}
