// Package gobeagle is a high-performance computing library for statistical
// phylogenetics: a Go reproduction of the BEAGLE library as extended for
// heterogeneous hardware by Ayres & Cummings (ICPP Workshops 2017,
// DOI 10.1109/ICPPW.2017.17).
//
// The library accelerates the dominant bottleneck of maximum-likelihood and
// Bayesian phylogenetic inference: evaluating the likelihood of a tree under
// a continuous-time Markov model of sequence evolution. Following the BEAGLE
// design, the API deliberately has no tree data structure — clients drive
// flexibly indexed buffers of partial likelihoods, transition matrices,
// eigendecompositions and scale factors through operation lists, which keeps
// data resident on the compute device across the whole analysis.
//
// # Implementations
//
// A single shared kernel set serves every implementation. The available
// implementations mirror the paper:
//
//   - CPU serial, the baseline;
//   - CPU SSE-style, with 4-state unrolled kernels for nucleotide models;
//   - CPU futures / thread-create / thread-pool threading models (§VI);
//   - CUDA and OpenCL-GPU accelerator implementations with GPU-style
//     one-thread-per-entry kernels, FMA builds, and local-memory-limited
//     work groups (§VII-B1), running on a simulated device framework with
//     the published characteristics of the paper's GPUs;
//   - OpenCL-x86 with loop-over-states kernels and large pattern
//     work-groups (§VII-B2).
//
// # Quick start
//
//	rsrc := gobeagle.ResourceList()[0] // host CPU
//	inst, err := gobeagle.NewInstance(gobeagle.Config{
//		TipCount: 3, PartialsBuffers: 5, MatrixBuffers: 5,
//		EigenBuffers: 1, StateCount: 4, PatternCount: 100,
//		CategoryCount: 1, ResourceID: rsrc.ID,
//		Flags: gobeagle.FlagThreadingThreadPool,
//	})
//	// set tips, eigendecomposition, rates/weights/frequencies ...
//	// inst.UpdateTransitionMatrices, inst.UpdatePartials ...
//	lnL, err := inst.CalculateRootLogLikelihoods(root, gobeagle.None)
//
// See ExampleNewInstance for a complete program, cmd/beagleml and
// cmd/beaglemcmc for clients that read alignment files, and DESIGN.md /
// EXPERIMENTS.md for the mapping between this repository and the paper's
// evaluation.
package gobeagle
