package kernels

import "math"

// Eigen is the flattened spectral decomposition of a rate matrix, in the
// form accepted by the library's SetEigenDecomposition: Q = V·diag(λ)·V⁻¹.
// Decompositions are always held in double precision regardless of the
// kernel precision, as BEAGLE does.
type Eigen struct {
	StateCount     int
	Values         []float64 // λ, length S
	Vectors        []float64 // V, row-major S×S
	InverseVectors []float64 // V⁻¹, row-major S×S
}

// UpdateTransitionDerivatives fills d1 and (when non-nil) d2 with the first
// and second derivatives of the transition probability matrices with respect
// to the edge length, for every rate category:
// dP/dt = V·(rΛ)·exp(Λrt)·V⁻¹ and d²P/dt² = V·(rΛ)²·exp(Λrt)·V⁻¹.
// These feed CalculateEdgeLogLikelihoods' derivative outputs, which
// maximum-likelihood programs use for Newton-style branch optimization.
//
//beagle:noalloc
func UpdateTransitionDerivatives[T Real](d1, d2 []T, e *Eigen, edgeLength float64, catRates []float64) {
	s := e.StateCount
	var expBuf [MaxWideStates]float64
	exp := expScratch(expBuf[:], s)
	for c, r := range catRates {
		t := edgeLength * r
		for k, v := range e.Values {
			exp[k] = math.Exp(v * t)
		}
		base := c * s * s
		for i := 0; i < s; i++ {
			vi := e.Vectors[i*s : (i+1)*s]
			for j := 0; j < s; j++ {
				var sum1, sum2 float64
				for k := 0; k < s; k++ {
					lam := e.Values[k] * r
					w := vi[k] * exp[k] * e.InverseVectors[k*s+j]
					sum1 += lam * w
					sum2 += lam * lam * w
				}
				d1[base+i*s+j] = T(sum1)
				if d2 != nil {
					d2[base+i*s+j] = T(sum2)
				}
			}
		}
	}
}

// EdgeSiteDerivatives computes, for patterns [lo, hi), the per-pattern site
// likelihood and its first and second derivatives with respect to the branch
// length, given the branch's transition matrix and its derivatives. out
// slices may alias each other only if identical; outD2/md2 may be nil when
// second derivatives are not requested.
func EdgeSiteDerivatives[T Real](outL, outD1, outD2 []float64, parent, child, m, md1, md2 []T,
	catWeights, freqs []float64, d Dims, lo, hi int) {
	s := d.StateCount
	for p := lo; p < hi; p++ {
		var siteL, siteD1, siteD2 float64
		for c := 0; c < d.CategoryCount; c++ {
			pOff := (c*d.PatternCount + p) * s
			mOff := c * s * s
			pv := parent[pOff : pOff+s]
			cv := child[pOff : pOff+s]
			var catL, catD1, catD2 float64
			for i := 0; i < s; i++ {
				row := m[mOff+i*s : mOff+(i+1)*s]
				row1 := md1[mOff+i*s : mOff+(i+1)*s]
				var inner, inner1, inner2 T
				for j := 0; j < s; j++ {
					inner += row[j] * cv[j]
					inner1 += row1[j] * cv[j]
				}
				if md2 != nil {
					row2 := md2[mOff+i*s : mOff+(i+1)*s]
					for j := 0; j < s; j++ {
						inner2 += row2[j] * cv[j]
					}
				}
				w := freqs[i] * float64(pv[i])
				catL += w * float64(inner)
				catD1 += w * float64(inner1)
				catD2 += w * float64(inner2)
			}
			siteL += catWeights[c] * catL
			siteD1 += catWeights[c] * catD1
			siteD2 += catWeights[c] * catD2
		}
		outL[p] = siteL
		outD1[p] = siteD1
		if outD2 != nil {
			outD2[p] = siteD2
		}
	}
}

// ReduceEdgeDerivatives folds per-pattern site likelihoods and derivatives
// into the total log-likelihood derivatives:
// d lnL/dt = Σ w_p·L'_p/L_p and d² lnL/dt² = Σ w_p·(L”_p/L_p − (L'_p/L_p)²).
func ReduceEdgeDerivatives(siteL, siteD1, siteD2, patternWeights []float64, lo, hi int) (d1, d2 float64) {
	for p := lo; p < hi; p++ {
		r := siteD1[p] / siteL[p]
		d1 += patternWeights[p] * r
		if siteD2 != nil {
			d2 += patternWeights[p] * (siteD2[p]/siteL[p] - r*r)
		}
	}
	return d1, d2
}

// TransitionMatrixRow computes one row of one category's transition matrix;
// workItem = c·S + i. This is the device-side variant, letting transition
// matrices be computed on the accelerator so branch-length changes move no
// data across the host↔device boundary (§IV-F). The per-item exponentials
// are recomputed redundantly, as a GPU kernel would.
//
//beagle:noalloc
func TransitionMatrixRow[T Real](out []T, e *Eigen, edgeLength float64, catRates []float64, workItem int) {
	s := e.StateCount
	c := workItem / s
	i := workItem % s
	if c >= len(catRates) {
		return
	}
	t := edgeLength * catRates[c]
	base := c * s * s
	vi := e.Vectors[i*s : (i+1)*s]
	// Per-item exponential staging (each work-item computes its own copy,
	// as a GPU kernel would into registers or local memory).
	var expBuf [MaxWideStates]float64
	expv := expScratch(expBuf[:], s)
	for k := 0; k < s; k++ {
		expv[k] = math.Exp(e.Values[k] * t)
	}
	for j := 0; j < s; j++ {
		var sum float64
		for k := 0; k < s; k++ {
			sum += vi[k] * expv[k] * e.InverseVectors[k*s+j]
		}
		if sum < 0 {
			sum = 0
		}
		out[base+i*s+j] = T(sum)
	}
}

// expScratch returns the exp(λt) scratch for s states: the caller's stack
// buffer cut to length, or a heap slice for the state counts beyond it.
//
//beagle:noalloc
func expScratch(stack []float64, s int) []float64 {
	if s > len(stack) {
		return make([]float64, s) //beagle:allow noalloc state counts beyond MaxWideStates have no fixed-size scratch; no model in use has one
	}
	return stack[:s]
}

// UpdateTransitionMatrix fills out (length C·S·S) with the transition
// probability matrices P(rate_c · edgeLength) for every rate category — the
// kernel behind the library's UpdateTransitionMatrices, which the paper
// notes also runs on the accelerator to minimize host↔device transfers.
// Small negative entries arising from round-off are clamped to zero.
//
// Entry (i, j) is Σ_k (V[i][k]·e^{λ_k t})·V⁻¹[k][j], k ascending. Wide state
// counts build a whole row at once — row_i = Σ_k w_k·V⁻¹[k][:] through
// VecMatT, V⁻¹'s rows read contiguously — four states take an unrolled body,
// and the rest keep the entry-wise loop; all perform the same operations in
// the same order for every entry. Scratch is on the stack up to
// MaxWideStates.
//
//beagle:noalloc
func UpdateTransitionMatrix[T Real](out []T, e *Eigen, edgeLength float64, catRates []float64) {
	s := e.StateCount
	switch {
	case s == 4:
		updateTransitionMatrix4(out, e, edgeLength, catRates)
		return
	case isWide(s):
		updateTransitionMatrixWide(out, e, edgeLength, catRates)
		return
	}
	var expBuf [minWideStates - 1]float64 // what is not wide is at most 4 states, or beyond MaxWideStates
	exp := expBuf[:]                      // exp(λ_k·t·r)
	if s > len(exp) {
		exp = make([]float64, s) //beagle:allow noalloc state counts beyond MaxWideStates have no fixed-size scratch; no model in use has one
	}
	// exp's length known and V⁻¹'s slice header in a local: the inner loop is
	// four iterations at 4 states, and a bounds check or a reload per
	// iteration is a measurable share of it.
	exp = exp[:s]
	inv := e.InverseVectors
	for c, r := range catRates {
		t := edgeLength * r
		for k, v := range e.Values {
			exp[k] = math.Exp(v * t)
		}
		dst := out[c*s*s : (c+1)*s*s]
		for i := 0; i < s; i++ {
			vi := e.Vectors[i*s : (i+1)*s]
			for j := 0; j < s; j++ {
				var sum float64
				for k, x := range exp {
					sum += vi[k] * x * inv[k*s+j]
				}
				if sum < 0 {
					sum = 0
				}
				dst[i*s+j] = T(sum)
			}
		}
	}
}

// updateTransitionMatrix4 is UpdateTransitionMatrix for four states,
// unrolled: the four exponentials once per category, a_k = V[i][k]·x_k once
// per row, and each entry summed as the loop sums it,
// (((0 + a0·V⁻¹[0][j]) + a1·V⁻¹[1][j]) + a2·V⁻¹[2][j]) + a3·V⁻¹[3][j] — the
// leading 0 + included, which turns a −0 first product into +0 — then
// clamped at zero.
//
//beagle:noalloc
func updateTransitionMatrix4[T Real](out []T, e *Eigen, edgeLength float64, catRates []float64) {
	l, v, inv := e.Values[:4], e.Vectors[:16], e.InverseVectors[:16]
	for c, r := range catRates {
		t := edgeLength * r
		x0, x1, x2, x3 := math.Exp(l[0]*t), math.Exp(l[1]*t), math.Exp(l[2]*t), math.Exp(l[3]*t)
		dst := out[c*16 : c*16+16]
		for i := 0; i < 16; i += 4 {
			a0, a1, a2, a3 := v[i]*x0, v[i+1]*x1, v[i+2]*x2, v[i+3]*x3
			row := dst[i : i+4 : i+4]
			for j := range row {
				sum := (((0 + a0*inv[j]) + a1*inv[4+j]) + a2*inv[8+j]) + a3*inv[12+j]
				if sum < 0 {
					sum = 0
				}
				row[j] = T(sum)
			}
		}
	}
}

// updateTransitionMatrixWide is UpdateTransitionMatrix's row-at-a-time form
// for isWide state counts. V⁻¹ is copied once per call into stack scratch
// with its rows padded to the lane multiple, which is the layout VecMatT
// takes: the "transposed matrix" of the product row_i = wᵀ·V⁻¹ is V⁻¹ itself.
//
//beagle:noalloc
func updateTransitionMatrixWide[T Real](out []T, e *Eigen, edgeLength float64, catRates []float64) {
	s := e.StateCount
	var (
		invBuf               [MaxWideStates * MaxWideStates]float64
		expBuf, wBuf, rowBuf [MaxWideStates]float64
	)
	stride := padStride[float64](s)
	inv, exp, w, row := invBuf[:s*stride], expBuf[:s], wBuf[:s], rowBuf[:stride]
	for k := 0; k < s; k++ {
		copy(inv[k*stride:k*stride+s], e.InverseVectors[k*s:(k+1)*s])
	}
	for c, r := range catRates {
		t := edgeLength * r
		for k, v := range e.Values {
			exp[k] = math.Exp(v * t)
		}
		base := c * s * s
		for i := 0; i < s; i++ {
			vi := e.Vectors[i*s : (i+1)*s]
			for k := range w {
				w[k] = vi[k] * exp[k]
			}
			VecMatT(row, inv, w, s, stride)
			dst := out[base+i*s : base+(i+1)*s]
			for j := range dst {
				sum := row[j]
				if sum < 0 {
					sum = 0
				}
				dst[j] = T(sum)
			}
		}
	}
}
