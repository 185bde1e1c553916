// Package kernels is the single shared kernel code base of the library — the
// Go analogue of the paper's one set of CUDA/OpenCL kernels with framework
// keywords resolved at the preprocessor stage. Every implementation (CPU
// serial, CPU threaded, and the simulated CUDA and OpenCL devices) executes
// these kernel bodies; what differs between implementations is only how work
// is partitioned and dispatched, exactly as in BEAGLE.
//
// Kernels are generic over the floating-point format (float32/float64),
// mirroring BEAGLE's per-precision kernel generation, and exist in the
// variants the paper describes:
//
//   - generic state-count kernels with an inner loop over states, the
//     OpenCL-x86 style where each work-item does more work (§VII-B2);
//   - work-item kernels computing a single (pattern, state) entry, the GPU
//     style with one thread per partials entry (Fig. 2);
//   - fused-multiply-add variants used when a device advertises fast FMA
//     (§VII-B1, Table IV);
//   - 4-state unrolled kernels, the analogue of the SSE code path.
//
// Host implementations do not pick among these per call: they bind one Set
// at construction, from the state-count table ForStateCount or Generic.
//
// Buffer layouts (identical everywhere):
//
//	partials:  [category][pattern][state]   idx = (c·P + p)·S + s
//	matrices:  [category][parent][child]    idx = (c·S + i)·S + j
//	tipStates: [pattern] int32; a value ≥ S denotes full ambiguity (gap)
package kernels

// Real is the set of floating-point formats a kernel can be instantiated
// for, the analogue of BEAGLE's single/double precision kernel builds.
type Real interface {
	~float32 | ~float64
}

// Dims carries the problem geometry shared by all kernels.
type Dims struct {
	StateCount    int // S: 4 nucleotide, 20 amino acid, 61 codon
	PatternCount  int // P: unique site patterns
	CategoryCount int // C: rate categories
}

// PartialsLen returns the length of a partials buffer for these dimensions.
func (d Dims) PartialsLen() int { return d.CategoryCount * d.PatternCount * d.StateCount }

// MatrixLen returns the length of a transition-matrix buffer (all
// categories) for these dimensions.
func (d Dims) MatrixLen() int { return d.CategoryCount * d.StateCount * d.StateCount }
