// Package accelimpl is the accelerator model of the library (Fig. 3): one
// implementation base that drives the shared kernel set through the single
// internal hardware interface of internal/device, with an implementation
// available for each framework (CUDA and OpenCL) and hardware-specific
// kernel variants:
//
//   - CUDA and OpenCL-GPU launch GPU-style kernels — one work-item per
//     partials entry (Fig. 2) — with work-group pattern counts limited by
//     the device's local memory (§VII-B1);
//   - OpenCL-x86 launches one work-item per pattern that loops over the
//     states, avoids explicit local memory, and takes a configurable
//     work-group size in patterns (§VII-B2, Table V).
//
// Both run the same kernels: the kernels.Set bound at construction, the FMA
// build on hardware that advertises fast fused multiply–add and the generic
// one otherwise. The GPU variants keep their per-entry launch geometry and
// cost, so the modeled clock charges what a GPU would, but execute each
// work-group as runs of whole patterns, one rate category at a time (a group
// may straddle two categories).
//
// The buffers are engine.Storage's — the same store, setters, getters, batch
// planning, reuse filter and pattern migration every CPU engine runs on; this
// package declares none of them. What it adds is only what is the
// accelerator's own: variant and device checks, work-group geometry, the FMA
// and roofline costs, kernel launches through device.Queue, one pooled device
// allocation for the transition matrices addressed through sub-buffers
// (§VII-A), and two charges that make the shared store behave as device
// memory: its footprint is reserved against the device's memory after every
// call that can allocate, and every setter, getter and migration is charged
// to the queue as the host↔device copy it models. Transition-matrix
// computation, partials updates, rescaling and site-likelihood integration
// all run as device kernels, so that only scalar results need cross the
// boundary, as the paper's design requires (§IV-F).
//
// In UpdatePartials the memory check sits between the store's validation and
// its reuse decision: the reservation needs the destinations validation
// allocated, and a batch the device cannot hold must fail before the reuse
// tracker records it as computed.
package accelimpl

import (
	"errors"
	"fmt"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
)

// Variant selects the hardware-specific kernel configuration.
type Variant int

// Accelerator implementation variants.
const (
	CUDA Variant = iota
	OpenCLGPU
	OpenCLX86
)

// String returns the implementation name used in resource listings.
func (v Variant) String() string {
	switch v {
	case CUDA:
		return "CUDA"
	case OpenCLGPU:
		return "OpenCL-GPU"
	case OpenCLX86:
		return "OpenCL-x86"
	default:
		return fmt.Sprintf("Accel-unknown(%d)", int(v))
	}
}

// Efficiency penalties applied to the device's peak rate when kernels are
// built without FMA on FMA-capable hardware, calibrated to Table IV's
// observed gains (≈1.8% single, ≈10–12% double precision).
const (
	noFMAEfficiencySingle = 0.982
	noFMAEfficiencyDouble = 0.90
)

// defaultGPUPatternsPerGroup is the GPU work-group size in patterns before
// the local-memory limit is applied (64 patterns × 4 states = 256 work-items
// per group for nucleotide models, a typical GPU block size).
const defaultGPUPatternsPerGroup = 64

// defaultX86PatternsPerGroup is the x86 work-group size in patterns; the
// paper selects 256 as the smallest size with peak throughput (Table V).
const defaultX86PatternsPerGroup = 256

// New creates an accelerator engine of the given variant on the given
// device, instantiated for the precision in the configuration.
func New(cfg engine.Config, variant Variant, dev *device.Device) (engine.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, errors.New("accelimpl: nil device")
	}
	switch variant {
	case CUDA:
		if dev.Framework != device.CUDA {
			return nil, fmt.Errorf("accelimpl: CUDA variant requires a CUDA device, got %s %s", dev.Framework, dev.Desc.Name)
		}
	case OpenCLGPU, OpenCLX86:
		if dev.Framework != device.OpenCL {
			return nil, fmt.Errorf("accelimpl: %s variant requires an OpenCL device, got %s %s", variant, dev.Framework, dev.Desc.Name)
		}
	default:
		return nil, fmt.Errorf("accelimpl: unknown variant %d", int(variant))
	}
	if cfg.SinglePrecision {
		return newEngine[float32](cfg, variant, dev)
	}
	return newEngine[float64](cfg, variant, dev)
}

// Engine is an accelerator implementation of engine.Engine: the shared
// store, executed by device kernels and accounted as device memory.
type Engine[T kernels.Real] struct {
	*engine.Storage[T]
	variant Variant
	dev     *device.Device
	q       *device.Queue

	// matrixPool is the one device allocation behind every transition
	// matrix; matrixViews are its per-matrix sub-buffers. The store's
	// Matrices[m] is matrixViews[m]'s data from the moment m is computed or
	// set.
	matrixPool  *device.Buffer[T]
	matrixViews []*device.Buffer[T]
	// site is the per-pattern staging buffer the integration kernels write
	// and the host downloads.
	site []float64
	// reserved is the device memory currently claimed for the store's
	// buffers and the staging buffer.
	reserved int64

	kern       kernels.Set[T] // the FMA build on hardware that advertises it
	groupPats  int            // patterns per work-group after local-memory limits
	efficiency float64
}

func newEngine[T kernels.Real](cfg engine.Config, variant Variant, dev *device.Device) (*Engine[T], error) {
	e := &Engine[T]{
		Storage: engine.NewStorage[T](cfg),
		variant: variant,
		dev:     dev,
		q:       dev.NewQueue(cfg.SinglePrecision),
		site:    make([]float64, cfg.Dims.PatternCount),
	}
	e.q.SetTracer(cfg.Trace, int32(cfg.TraceLane))

	// The FMA build where the device advertises fast FMA; the plain build on
	// such a device runs below its peak (Table IV).
	e.kern, e.efficiency = kernels.Generic[T](), 1
	switch {
	case dev.Desc.SupportsFMA && !cfg.DisableFMA:
		e.kern = kernels.FMA[T]()
	case dev.Desc.SupportsFMA && cfg.SinglePrecision:
		e.efficiency = noFMAEfficiencySingle
	case dev.Desc.SupportsFMA:
		e.efficiency = noFMAEfficiencyDouble
	}

	// Work-group geometry. GPU variants stage both children's partials in
	// local memory, so the device's local-memory size bounds the patterns
	// per group (§VII-B1); the x86 variant lets the compiler manage caching
	// and uses large pattern groups (§VII-B2).
	req := cfg.WorkGroupSize
	if req <= 0 {
		if variant == OpenCLX86 {
			req = defaultX86PatternsPerGroup
		} else {
			req = defaultGPUPatternsPerGroup
		}
	}
	if variant == OpenCLX86 {
		e.groupPats = req
	} else {
		e.groupPats = dev.Desc.MaxPatternsPerGroup(req, cfg.Dims.StateCount, cfg.SinglePrecision)
	}

	// Transition matrices are pooled into one allocation with an aligned
	// stride per matrix, addressed through framework-appropriate
	// sub-buffers (§VII-A): pointer arithmetic under CUDA,
	// clCreateSubBuffer under OpenCL.
	n := cfg.Dims.MatrixLen()
	stride := e.alignedStride(n)
	var err error
	if e.matrixPool, err = device.Alloc[T](dev, stride*cfg.MatrixBuffers); err != nil {
		return nil, err
	}
	e.matrixViews = make([]*device.Buffer[T], cfg.MatrixBuffers)
	for i := range e.matrixViews {
		if dev.Framework == device.CUDA {
			e.matrixViews[i], err = e.matrixPool.SubCUDA(i*stride, n)
		} else {
			e.matrixViews[i], err = e.matrixPool.SubOpenCL(i*stride, n)
		}
		if err != nil {
			e.release()
			return nil, err
		}
	}
	if err := e.reserve(); err != nil {
		e.release()
		return nil, err
	}
	return e, nil
}

// elemSize is the size in bytes of one element of the engine's precision.
func (e *Engine[T]) elemSize() int {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return 4
	}
	return 8
}

// alignedStride rounds a matrix length up so every sub-buffer origin
// satisfies the device's base alignment.
func (e *Engine[T]) alignedStride(n int) int {
	per := e.dev.Desc.BaseAlign / e.elemSize()
	if per <= 1 {
		return n
	}
	return (n + per - 1) / per * per
}

// Name identifies the implementation and its device.
func (e *Engine[T]) Name() string {
	return fmt.Sprintf("%s: %s", e.variant, e.dev.Desc.Name)
}

// Queue exposes the engine's command queue for benchmark instrumentation.
func (e *Engine[T]) Queue() *device.Queue { return e.q }

// GroupPatterns returns the effective work-group size in patterns after
// device limits, for tests and benchmark reporting.
func (e *Engine[T]) GroupPatterns() int { return e.groupPats }

// reserve brings the device's accounting in line with what the store holds
// now — partials, compact tip states, scale buffers — plus the site staging
// buffer, and fails when the device cannot hold it. It runs after every call
// that can allocate or resize a buffer.
//
// An engine that hit out-of-memory keeps the buffers the store allocated for
// the failed call (zero-filled, as any lazily allocated destination is), but
// its reservation stays at the last footprint that fit, so the device never
// accounts more than its memory. Calls that allocate nothing still work; any
// call that reserves fails the same way until the footprint shrinks again
// (SetTipPartials over compact states, DetachPatterns) — in practice such an
// engine is good for reading results back and Close.
func (e *Engine[T]) reserve() error {
	want := int64(len(e.site)) * 8
	for _, b := range e.Partials {
		want += int64(len(b)) * int64(e.elemSize())
	}
	for _, b := range e.TipStates {
		want += int64(len(b)) * 4
	}
	for _, b := range e.Scale {
		want += int64(len(b)) * 8
	}
	if err := e.dev.Reserve(want - e.reserved); err != nil {
		return err
	}
	e.reserved = want
	return nil
}

// release returns everything the engine holds on the device.
func (e *Engine[T]) release() {
	e.dev.Reserve(-e.reserved) // a release cannot fail
	e.reserved = 0
	if e.matrixPool != nil {
		e.matrixPool.Free() // held since construction and freed once: cannot fail
		e.matrixPool = nil
	}
}

// Close releases all device memory. Close is idempotent; every method called
// afterwards returns engine.ErrClosed from the store.
func (e *Engine[T]) Close() error {
	e.Storage.Close()
	e.release()
	return nil
}
