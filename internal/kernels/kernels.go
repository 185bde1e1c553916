// Package kernels is the single shared kernel code base of the library — the
// Go analogue of the paper's one set of CUDA/OpenCL kernels with framework
// keywords resolved at the preprocessor stage. Every implementation (CPU
// serial, CPU threaded, and the simulated CUDA and OpenCL devices) executes
// these kernel bodies; what differs between implementations is only how work
// is partitioned and dispatched, exactly as in BEAGLE.
//
// Kernels are generic over the floating-point format (float32/float64),
// mirroring BEAGLE's per-precision kernel generation. Every partials kernel
// computes the destination for a pattern range [lo, hi) across all rate
// categories, and comes in the families the paper describes:
//
//   - generic state-count kernels with an inner loop over states (§VII-B2);
//   - 4-state kernels, the analogue of the SSE code path: AVX2 assembly
//     for PartialsPartials4 with lanes across the four states and its
//     unrolled Go body (partials4.go), and the compact-subtree kernels that
//     build a small subtree's distinct rows as a class table and gather them
//     by class id, in the same operations and order (compact4.go, the
//     gathers in AVX2). A compact-state tip is such a subtree of five
//     classes, so StatesPartials4 and StatesStates4 are thin wrappers that
//     gather its side table. Outside the partials
//     kernels, RescalePartials' and SiteLikelihoods' 4-state paths are
//     AVX2 assembly as well, lanes across four patterns (rescale4_amd64.s,
//     root4_amd64.s), and UpdateTransitionMatrix's 4-state body is
//     unrolled Go;
//   - wide-state kernels for 5 to MaxWideStates states (amino acids,
//     codons), the analogue of BEAGLE's hand-vectorised CPU path.
//
// No implementation picks among these per call: each binds one Set at
// construction — the state-count table ForStateCount, or Generic for the
// serial reference — and engine.ResolvedOp.Partials picks the Set's kernel
// for an operation's operand kinds. A GPU-style launch with one work-item per
// partials entry (Fig. 2) runs the same kernels over each work-group's
// patterns, one rate category at a time, and its matrix launch runs
// UpdateTransitionMatrix once per category. The paper's FMA build (§VII-B1,
// Table IV) is no kernel family here: it is a rate in the accelerator cost
// model, so the accelerators compute the CPU engines' bits.
//
// The wide family and UpdateTransitionMatrix rest on one vectorised
// primitive, VecMatT: acc[i] = Σ_j mt[j·stride+i]·v[j], AVX2 assembly on
// amd64 (selected once, from CPUID and XGETBV; -tags purego forces the Go
// body) and a Go loop of the same shape elsewhere. Three decisions shape it:
//
//   - Lanes run across the outputs i, not along the sum over j. A partials
//     entry is a dot product, and splitting a dot product over lanes means
//     adding partial sums in an order the scalar kernel never uses. With one
//     output per lane every lane performs the scalar kernel's own sequence
//     — start at +0, then multiply, add, for j ascending — so results are
//     the generic kernels' bit for bit, and an engine, a shard worker or a
//     journal replay may mix families freely. The price is that the matrix
//     must be read transposed.
//   - No fused multiply-add. VFMADD rounds once where MULSD, ADDSD round
//     twice, which would change results against the generic kernels (the Go
//     compiler never fuses on amd64), against every pinned answer, and
//     between hosts with and without FMA. Separate VMULPD/VADDPD already
//     saturate both vector ports.
//   - The transposed, lane-padded matrix is scratch on the stack of the
//     kernel call, rebuilt per call and per category, not a second copy
//     beside every matrix buffer. A call covers a pattern chunk, so the S²
//     transposition is a percent or two of its S²·patterns work; a resident
//     copy would double matrix memory, add an invalidation rule to every
//     matrix setter, and have to be shipped or rebuilt by every backend
//     that forwards buffers. The scratch is bounded by MaxWideStates.
//
// Without the assembly the wide family is no faster than the generic loop (the
// accumulators live in memory), so ForStateCount enters it only where the
// assembly runs. UpdateTransitionMatrix uses the primitive on every
// platform: there the old loop walked V⁻¹ by columns, and reading it by rows
// wins even in Go.
//
// The 4-state kernels make the same three decisions in assembly of their
// own, under the same gate: lanes across the four output states, each
// running the unrolled Go body's sequence; no fused multiply-add; both
// matrices transposed per category into scratch on the call's stack. At four
// states a VecMatT call per pattern would cost more than its arithmetic, so
// the pattern loop itself is in assembly, with the transposed columns held
// in registers. The 4-state rescale has no dot product, but the same gate
// and the same rule: each instruction is the Go body's own operation, so
// the bits are its bits. So does LogSites, the site log likelihoods: its
// AVX2 body and its Go body are both Go's amd64 math.Log operation for
// operation, so the integrations' logs are amd64's bits on every
// architecture.
//
// Buffer layouts (identical everywhere):
//
//	partials:  [category][pattern][state]   idx = (c·P + p)·S + s
//	matrices:  [category][parent][child]    idx = (c·S + i)·S + j
//	tipStates: [pattern] int32; a value outside [0, S) denotes full
//	           ambiguity (a gap) in every kernel
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
