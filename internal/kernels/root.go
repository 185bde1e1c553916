package kernels

import "math"

// SiteLikelihoods computes the per-pattern site likelihoods at the root for
// patterns [lo, hi): site_p = Σ_c w_c · Σ_s π_s · L_root[c,p,s]. Results are
// accumulated in double precision regardless of kernel precision, as BEAGLE's
// integration kernels do. Four-state roots take an unrolled path that
// returns the same bits.
//
//beagle:noalloc
func SiteLikelihoods[T Real](out []float64, root []T, catWeights, freqs []float64, d Dims, lo, hi int) {
	if d.StateCount == 4 {
		siteLikelihoods4(out, root, catWeights, freqs, d, lo, hi)
		return
	}
	siteLikelihoodsGeneric(out, root, catWeights, freqs, d, lo, hi)
}

// siteLikelihoodsGeneric is SiteLikelihoods for any state count, and the
// reference its 4-state path is held to.
//
//beagle:noalloc
func siteLikelihoodsGeneric[T Real](out []float64, root []T, catWeights, freqs []float64, d Dims, lo, hi int) {
	s := d.StateCount
	for p := lo; p < hi; p++ {
		var site float64
		for c := 0; c < d.CategoryCount; c++ {
			pOff := (c*d.PatternCount + p) * s
			v := root[pOff : pOff+s]
			var cat float64
			for i := 0; i < s; i++ {
				cat += freqs[i] * float64(v[i])
			}
			site += catWeights[c] * cat
		}
		out[p] = site
	}
}

// siteLikelihoods4 is SiteLikelihoods for four states: the generic loop's
// order — patterns outer, categories inner, each category's sum started at
// +0 and taken over the states in order — with the state loop unrolled. The
// leading 0 + is kept: it turns a −0 first product into +0, as the loop
// does.
//
//beagle:noalloc
func siteLikelihoods4[T Real](out []float64, root []T, catWeights, freqs []float64, d Dims, lo, hi int) {
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	w := catWeights[:d.CategoryCount]
	stride := d.PatternCount * 4
	for p := lo; p < hi; p++ {
		var site float64
		off := p * 4
		for _, wc := range w {
			v := root[off : off+4 : off+4]
			site += wc * ((((0 + f0*float64(v[0])) + f1*float64(v[1])) + f2*float64(v[2])) + f3*float64(v[3]))
			off += stride
		}
		out[p] = site
	}
}

// RootLogLikelihood reduces site likelihoods to the total log likelihood:
// Σ_p patternWeight_p · (log(site_p) + scale_p). cumScale may be nil when no
// rescaling is active; otherwise it holds the accumulated per-pattern log
// scale factors.
//
//beagle:noalloc
func RootLogLikelihood(siteLik []float64, patternWeights, cumScale []float64, lo, hi int) float64 {
	var lnL float64
	for p := lo; p < hi; p++ {
		l := math.Log(siteLik[p])
		if cumScale != nil {
			l += cumScale[p]
		}
		lnL += patternWeights[p] * l
	}
	return lnL
}

// EdgeSiteLikelihoods computes per-pattern site likelihoods across a single
// branch with transition matrix m between parent-side partials and
// child-side partials:
// site_p = Σ_c w_c · Σ_i π_i · parent[c,p,i] · Σ_j m[c,i,j]·child[c,p,j].
// This is the kernel behind CalculateEdgeLogLikelihoods.
//
//beagle:noalloc
func EdgeSiteLikelihoods[T Real](out []float64, parent, child, m []T, catWeights, freqs []float64, d Dims, lo, hi int) {
	s := d.StateCount
	for p := lo; p < hi; p++ {
		var site float64
		for c := 0; c < d.CategoryCount; c++ {
			pOff := (c*d.PatternCount + p) * s
			mOff := c * s * s
			pv := parent[pOff : pOff+s]
			cv := child[pOff : pOff+s]
			var cat float64
			for i := 0; i < s; i++ {
				row := m[mOff+i*s : mOff+(i+1)*s]
				var inner T
				for j := 0; j < s; j++ {
					inner += row[j] * cv[j]
				}
				cat += freqs[i] * float64(pv[i]) * float64(inner)
			}
			site += catWeights[c] * cat
		}
		out[p] = site
	}
}

// RescalePartials rescales partials for patterns [lo, hi) by an exact power
// of two: with 2^(e-1) ≤ max < 2^e for the pattern's largest entry across
// states and categories, every entry is multiplied by 2^-e, which moves the
// largest into [0.5, 1) and is exact wherever the result is normal, and
// scale[p] = e·ln2 — still a natural log, as every reader of scale buffers
// expects. The exponent is read from the entry's bits, so no logarithm is
// taken, and the factor is applied in float64, so a single-precision
// pattern whose largest entry is subnormal rescales too.
//
// Entries are compared by their float64 bit patterns as signed integers,
// which order non-negative values as the values do; an entry with its sign
// bit set (−0 and negative NaNs included) never wins. A pattern with no
// positive entry, or with +Inf or a NaN whose sign bit is clear, is left as
// it is with a zero scale factor. Rescaling keeps partials within
// floating-point range on large trees, especially in single precision.
// Four-state partials take an unrolled path that returns the same bits, in
// AVX2 assembly where the CPU has it (the gate VecMatT uses).
//
//beagle:noalloc
func RescalePartials[T Real](partials []T, scale []float64, d Dims, lo, hi int) {
	switch {
	case d.StateCount == 4 && vecMatAccelerated && d.CategoryCount > 0:
		rescalePartials4Asm(partials, scale, d, lo, hi)
	case d.StateCount == 4:
		rescalePartials4(partials, scale, d, lo, hi)
	default:
		rescalePartialsGeneric(partials, scale, d, lo, hi)
	}
}

// rescalePartials4Asm is RescalePartials for four states in assembly. The
// assembly stops at each pattern pow2Scale declines; that pattern is
// finished here by rescaleRare, as the Go body finishes it, and the
// assembly resumes after it.
//
//beagle:noalloc
func rescalePartials4Asm[T Real](partials []T, scale []float64, d Dims, lo, hi int) {
	stride := d.PatternCount * 4
	end := d.CategoryCount * stride
	for lo < hi {
		lo = rescale4Asm(partials, scale, d, lo, hi)
		if lo < hi {
			scale[lo] = rescaleRare(partials, d, lo, maxKey4(partials[lo*4:end], stride))
			lo++
		}
	}
}

// rescalePartialsGeneric is RescalePartials for any state count.
//
//beagle:noalloc
func rescalePartialsGeneric[T Real](partials []T, scale []float64, d Dims, lo, hi int) {
	s := d.StateCount
	for p := lo; p < hi; p++ {
		m := patternMaxKey(partials, d, p)
		f, logScale, ok := pow2Scale(m)
		if !ok {
			scale[p] = rescaleRare(partials, d, p, m)
			continue
		}
		for c := 0; c < d.CategoryCount; c++ {
			pOff := (c*d.PatternCount + p) * s
			row := partials[pOff : pOff+s]
			for i, v := range row {
				row[i] = T(float64(v) * f)
			}
		}
		scale[p] = logScale
	}
}

// rescalePartials4 is RescalePartials for four states in Go, the path
// without the assembly: the maximum is taken in four independent lanes, one
// per state, with no branch, and the scaling is unrolled.
//
//beagle:noalloc
func rescalePartials4[T Real](partials []T, scale []float64, d Dims, lo, hi int) {
	stride := d.PatternCount * 4
	end := d.CategoryCount * stride
	for p := lo; p < hi; p++ {
		m := maxKey4(partials[p*4:end], stride)
		f, logScale, ok := pow2Scale(m)
		if !ok {
			scale[p] = rescaleRare(partials, d, p, m)
			continue
		}
		for off := p * 4; off < end; off += stride {
			v := partials[off : off+4 : off+4]
			v[0] = T(float64(v[0]) * f)
			v[1] = T(float64(v[1]) * f)
			v[2] = T(float64(v[2]) * f)
			v[3] = T(float64(v[3]) * f)
		}
		scale[p] = logScale
	}
}

// maxKey4 is the largest order key among the four-state entries col[0:4],
// col[stride:stride+4], … — one pattern's entries across categories — taken
// in four independent lanes, one per state, with no branch.
//
//beagle:noalloc
func maxKey4[T Real](col []T, stride int) int64 {
	var m0, m1, m2, m3 int64
	for off := 0; off+4 <= len(col); off += stride {
		v := col[off : off+4 : off+4]
		m0 = max(m0, orderKey(float64(v[0])))
		m1 = max(m1, orderKey(float64(v[1])))
		m2 = max(m2, orderKey(float64(v[2])))
		m3 = max(m3, orderKey(float64(v[3])))
	}
	return max(m0, m1, m2, m3)
}

// patternMaxKey is the largest order key among pattern p's entries across
// states and categories, or 0 when none is positive.
//
//beagle:noalloc
func patternMaxKey[T Real](partials []T, d Dims, p int) int64 {
	s := d.StateCount
	var m int64
	for c := 0; c < d.CategoryCount; c++ {
		pOff := (c*d.PatternCount + p) * s
		for _, v := range partials[pOff : pOff+s] {
			m = max(m, orderKey(float64(v)))
		}
	}
	return m
}

// orderKey is x's bit pattern as a signed integer: for non-negative x it
// orders as x does, and it is negative for every x with the sign bit set.
//
//beagle:noalloc
func orderKey(x float64) int64 { return int64(math.Float64bits(x)) }

// pow2Scale returns the factor 2^-e and the log scale factor e·ln2 for a
// pattern whose largest entry has the order key m, when that entry is a
// positive normal float64 and 2^-e is one too — every single-precision
// value, and all but the top and bottom of the double range. ok is false
// for every other m; rescaleRare finishes those patterns.
//
//beagle:noalloc
func pow2Scale(m int64) (f, logScale float64, ok bool) {
	exp := m >> 52 // the biased exponent: the sign bit of m is clear here
	if uint64(exp-1) >= 2044 {
		return 0, 0, false
	}
	// 2^(exp-1023) ≤ max < 2^(exp-1022), so e = exp-1022 and the biased
	// exponent of 2^-e is 2045-exp.
	return math.Float64frombits(uint64(2045-exp) << 52), float64(exp-1022) * math.Ln2, true
}

// rescaleRare finishes pattern p when pow2Scale declines its largest
// entry's order key m, and returns the pattern's log scale factor. A pattern
// with no positive entry, or whose largest entry is +Inf or NaN, is left as
// it is with a zero factor. Otherwise the largest entry is a double at or
// above 2^1022, where 2^-e is subnormal but exact, or a subnormal double,
// where 2^-e may exceed the largest float64 and is applied as
// 2^1023 · 2^(-e-1023): two multiplications that scale up, so both are exact.
//
//beagle:noalloc
func rescaleRare[T Real](partials []T, d Dims, p int, m int64) float64 {
	if m <= 0 || m >= orderKey(math.Inf(1)) {
		return 0
	}
	_, e := math.Frexp(math.Float64frombits(uint64(m)))
	f1, f2 := math.Ldexp(1, -e), 1.0
	if -e > 1023 {
		f1, f2 = math.Ldexp(1, 1023), math.Ldexp(1, -e-1023)
	}
	s := d.StateCount
	for c := 0; c < d.CategoryCount; c++ {
		pOff := (c*d.PatternCount + p) * s
		row := partials[pOff : pOff+s]
		for i, v := range row {
			row[i] = T(float64(v) * f1 * f2)
		}
	}
	return float64(e) * math.Ln2
}

// ApplyReadScale applies previously written per-pattern log scale factors to
// freshly computed partials for patterns [lo, hi): every state and category
// entry of pattern p is divided by exp(scale[p]) — BEAGLE's fixed-scaling
// mode, where an operation reuses factors captured by an earlier rescale
// instead of computing new ones. The factors themselves are unchanged; the
// caller integrates them through the cumulative scale buffer as usual.
//
//beagle:noalloc
func ApplyReadScale[T Real](partials []T, scale []float64, d Dims, lo, hi int) {
	s := d.StateCount
	for p := lo; p < hi; p++ {
		if scale[p] == 0 {
			continue
		}
		factor := T(math.Exp(-scale[p]))
		for c := 0; c < d.CategoryCount; c++ {
			pOff := (c*d.PatternCount + p) * s
			for i := 0; i < s; i++ {
				partials[pOff+i] *= factor
			}
		}
	}
}

// AccumulateScaleFactors sums the given per-pattern log scale factor buffers
// into cum for patterns [lo, hi) — the kernel behind
// AccumulateScaleFactors in the API. It runs by rows, one buffer at a time
// over the whole range, and adds in list order, so each pattern's sum is
// 0 + f₀ + f₁ + … in exactly the order a per-pattern loop adds it. cum must
// not be one of factors.
//
//beagle:noalloc
func AccumulateScaleFactors(cum []float64, factors [][]float64, lo, hi int) {
	out := cum[lo:hi]
	clear(out)
	for _, f := range factors {
		for i, v := range f[lo:hi] {
			out[i] += v
		}
	}
}
