//go:build amd64 && !purego

package kernels

// siteLikelihoods4Asm runs SiteLikelihoods' 4-state loop in assembly over
// the whole blocks of four patterns from lo and returns the pattern it
// stopped at, which the Go body finishes. d.CategoryCount must be at least
// 1; the slices are cut here to all the assembly reads and writes.
//
//beagle:noalloc
func siteLikelihoods4Asm[T Real](out []float64, root []T, catWeights, freqs []float64, d Dims, lo, hi int) int {
	n := (hi - lo) &^ 3
	if n == 0 {
		return lo
	}
	stride := d.PatternCount * 4
	col := root[lo*4 : (d.CategoryCount-1)*stride+(lo+n)*4]
	switch c := any(col).(type) { //beagle:allow noalloc the boxed slice header never leaves this frame; TestKernelsAllocateNothing holds it to zero
	case []float64:
		siteLikelihoods4F64AVX2(out[lo:lo+n], c, catWeights[:d.CategoryCount], freqs[:4], stride)
	case []float32:
		siteLikelihoods4F32AVX2(out[lo:lo+n], c, catWeights[:d.CategoryCount], freqs[:4], stride)
	default:
		return lo
	}
	return lo + n
}

// logSitesAsm runs LogSites in assembly over the whole blocks of four
// patterns from lo and returns the pattern it stopped at, which the Go body
// finishes.
//
//beagle:noalloc
func logSitesAsm(out, site, scale []float64, lo, hi int) int {
	n := (hi - lo) &^ 3
	if n == 0 {
		return lo
	}
	if scale == nil {
		logSitesAVX2(out[lo:lo+n], site[lo:lo+n])
	} else {
		logSitesScaledAVX2(out[lo:lo+n], site[lo:lo+n], scale[lo:lo+n])
	}
	return lo + n
}

// siteLikelihoods4F64AVX2 requires len(out)%4 == 0, len(w) ≥ 1,
// len(freqs) ≥ 4 and len(root) ≥ (len(w)-1)·stride + 4·len(out).
//
//beagle:noalloc
//go:noescape
func siteLikelihoods4F64AVX2(out, root, w, freqs []float64, stride int)

// siteLikelihoods4F32AVX2 is siteLikelihoods4F64AVX2 for a float32 root.
//
//beagle:noalloc
//go:noescape
func siteLikelihoods4F32AVX2(out []float64, root []float32, w, freqs []float64, stride int)

// logSitesAVX2 requires len(site) ≥ len(out) and len(out)%4 == 0.
//
//beagle:noalloc
//go:noescape
func logSitesAVX2(out, site []float64)

// logSitesScaledAVX2 is logSitesAVX2 plus scale, with len(scale) ≥ len(out).
//
//beagle:noalloc
//go:noescape
func logSitesScaledAVX2(out, site, scale []float64)
