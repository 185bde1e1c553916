//go:build !amd64 || purego

package kernels

// Without the assembly asmPatterns4 hands every pattern (and SideRows4 every
// row) to the Go bodies, RescalePartials, SiteLikelihoods and LogSites never
// leave theirs, and the two that report whether they ran say no, so none of
// these computes anything.

//beagle:noalloc
func partialsPartials4Asm[T Real](dest, p1, p2, mt []T) {}

//beagle:noalloc
func statesPartials4Asm[T Real](dest []T, s []int32, p2, mt []T) {}

//beagle:noalloc
func rescale4Asm[T Real](partials []T, scale []float64, d Dims, lo, hi int) int { return hi }

//beagle:noalloc
func gatherGather4Asm[T Real](dest []T, g1 []int32, t1 []T, g2 []int32, t2 []T) bool { return false }

//beagle:noalloc
func gatherPartials4Asm[T Real](dest []T, g []int32, t1, p2, mt []T) {}

//beagle:noalloc
func sideRows4Asm[T Real](out, tab, mt []T) {}

//beagle:noalloc
func classTable4Asm[T Real](tab, s1, s2 []T) bool { return false }

//beagle:noalloc
func siteLikelihoods4Asm[T Real](out []float64, root []T, catWeights, freqs []float64, d Dims, lo, hi int) int {
	return lo
}

//beagle:noalloc
func logSitesAsm(out, site, scale []float64, lo, hi int) int { return lo }
