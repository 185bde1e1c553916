//go:build !amd64 || purego

package kernels

// Without the assembly asmPatterns4 hands every pattern to the Go bodies,
// and RescalePartials never leaves its Go body, so these are never called.

//beagle:noalloc
func partialsPartials4Asm[T Real](dest, p1, p2, mt []T) {}

//beagle:noalloc
func statesPartials4Asm[T Real](dest []T, s []int32, p2, mt []T) {}

//beagle:noalloc
func rescale4Asm[T Real](partials []T, scale []float64, d Dims, lo, hi int) int { return hi }
