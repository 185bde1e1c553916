//go:build !amd64 || purego

package kernels

// Without the assembly asmPatterns4 hands every pattern to the Go bodies, so
// these are never called.

//beagle:noalloc
func partialsPartials4Asm[T Real](dest, p1, p2, mt []T) {}

//beagle:noalloc
func statesPartials4Asm[T Real](dest []T, s []int32, p2, mt []T) {}
