package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// randomEigen builds a well-conditioned reversible-like decomposition for
// kernel tests: V orthogonal-ish via random diagonal scaling would be
// complex, so use a diagonal system with known inverse.
func diagEigen(n int, rng *rand.Rand) *Eigen {
	e := &Eigen{StateCount: n}
	e.Values = make([]float64, n)
	e.Vectors = make([]float64, n*n)
	e.InverseVectors = make([]float64, n*n)
	for i := 0; i < n; i++ {
		e.Values[i] = -rng.Float64() * 2
		e.Vectors[i*n+i] = 1
		e.InverseVectors[i*n+i] = 1
	}
	return e
}

func TestTransitionMatrixRowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := diagEigen(4, rng)
	rates := []float64{0.5, 1.5}
	full := make([]float64, 2*16)
	rows := make([]float64, 2*16)
	UpdateTransitionMatrix(full, e, 0.3, rates)
	for item := 0; item < 2*4; item++ {
		TransitionMatrixRow(rows, e, 0.3, rates, item)
	}
	for i := range full {
		if math.Abs(full[i]-rows[i]) > 1e-14 {
			t.Fatalf("row kernel differs at %d: %v vs %v", i, rows[i], full[i])
		}
	}
	// Out-of-range work items are ignored.
	TransitionMatrixRow(rows, e, 0.3, rates, 99)
}

func TestUpdateTransitionDerivativesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := diagEigen(4, rng)
	rates := []float64{0.5, 2.0}
	const bt, h = 0.4, 1e-6
	d1 := make([]float64, 2*16)
	d2 := make([]float64, 2*16)
	UpdateTransitionDerivatives(d1, d2, e, bt, rates)

	pPlus := make([]float64, 2*16)
	pMinus := make([]float64, 2*16)
	p0 := make([]float64, 2*16)
	UpdateTransitionMatrix(pPlus, e, bt+h, rates)
	UpdateTransitionMatrix(pMinus, e, bt-h, rates)
	UpdateTransitionMatrix(p0, e, bt, rates)
	for i := range d1 {
		num1 := (pPlus[i] - pMinus[i]) / (2 * h)
		num2 := (pPlus[i] - 2*p0[i] + pMinus[i]) / (h * h)
		if math.Abs(d1[i]-num1) > 1e-7 {
			t.Fatalf("dP/dt mismatch at %d: %v vs %v", i, d1[i], num1)
		}
		if math.Abs(d2[i]-num2) > 1e-3 {
			t.Fatalf("d²P/dt² mismatch at %d: %v vs %v", i, d2[i], num2)
		}
	}
	// nil second-derivative output is allowed.
	UpdateTransitionDerivatives(d1, nil, e, bt, rates)
}

func TestEdgeSiteDerivativesMatchNumericLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Dims{StateCount: 4, PatternCount: 9, CategoryCount: 2}
	pr := newProblem[float64](rng, 4, 9, 2)
	e := diagEigen(4, rng)
	freqs := []float64{0.25, 0.25, 0.25, 0.25}
	wts := []float64{0.5, 0.5}
	rates := []float64{0.7, 1.3}
	const bt, h = 0.35, 1e-6

	m := make([]float64, d.MatrixLen())
	m1 := make([]float64, d.MatrixLen())
	m2 := make([]float64, d.MatrixLen())
	UpdateTransitionMatrix(m, e, bt, rates)
	UpdateTransitionDerivatives(m1, m2, e, bt, rates)

	siteL := make([]float64, 9)
	siteD1 := make([]float64, 9)
	siteD2 := make([]float64, 9)
	EdgeSiteDerivatives(siteL, siteD1, siteD2, pr.p1, pr.p2, m, m1, m2, wts, freqs, d, 0, 9)

	// Numeric per-pattern derivatives from EdgeSiteLikelihoods at bt ± h.
	mP := make([]float64, d.MatrixLen())
	mM := make([]float64, d.MatrixLen())
	UpdateTransitionMatrix(mP, e, bt+h, rates)
	UpdateTransitionMatrix(mM, e, bt-h, rates)
	lP := make([]float64, 9)
	lM := make([]float64, 9)
	l0 := make([]float64, 9)
	EdgeSiteLikelihoods(lP, pr.p1, pr.p2, mP, wts, freqs, d, 0, 9)
	EdgeSiteLikelihoods(lM, pr.p1, pr.p2, mM, wts, freqs, d, 0, 9)
	EdgeSiteLikelihoods(l0, pr.p1, pr.p2, m, wts, freqs, d, 0, 9)

	for p := 0; p < 9; p++ {
		if math.Abs(siteL[p]-l0[p]) > 1e-12 {
			t.Fatalf("site likelihood mismatch at %d", p)
		}
		num1 := (lP[p] - lM[p]) / (2 * h)
		if math.Abs(siteD1[p]-num1) > 1e-6*(1+math.Abs(num1)) {
			t.Fatalf("site d1 mismatch at %d: %v vs %v", p, siteD1[p], num1)
		}
	}

	// Reduction identities.
	patW := make([]float64, 9)
	for i := range patW {
		patW[i] = 1 + float64(i%3)
	}
	d1, d2 := ReduceEdgeDerivatives(siteL, siteD1, siteD2, patW, 0, 9)
	var wantD1 float64
	for p := 0; p < 9; p++ {
		wantD1 += patW[p] * siteD1[p] / siteL[p]
	}
	if math.Abs(d1-wantD1) > 1e-12 {
		t.Fatalf("ReduceEdgeDerivatives d1 %v want %v", d1, wantD1)
	}
	if math.IsNaN(d2) {
		t.Fatal("d2 is NaN")
	}
	// First-derivative-only reduction.
	d1b, d2b := ReduceEdgeDerivatives(siteL, siteD1, nil, patW, 0, 9)
	if d1b != d1 || d2b != 0 {
		t.Fatalf("nil-d2 reduction gave %v %v", d1b, d2b)
	}
}
