package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomProblem builds random partials, tip states and stochastic-like
// matrices for the given geometry.
type problem[T Real] struct {
	d              Dims
	p1, p2, m1, m2 []T
	s1, s2         []int32
}

func newProblem[T Real](rng *rand.Rand, s, pat, cat int) *problem[T] {
	d := Dims{StateCount: s, PatternCount: pat, CategoryCount: cat}
	pr := &problem[T]{d: d}
	mk := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = T(rng.Float64())
		}
		return v
	}
	pr.p1 = mk(d.PartialsLen())
	pr.p2 = mk(d.PartialsLen())
	pr.m1 = mk(d.MatrixLen())
	pr.m2 = mk(d.MatrixLen())
	pr.s1 = make([]int32, pat)
	pr.s2 = make([]int32, pat)
	for i := 0; i < pat; i++ {
		pr.s1[i] = int32(rng.Intn(s + 1)) // occasionally ambiguous
		pr.s2[i] = int32(rng.Intn(s + 1))
	}
	return pr
}

// statesAsPartials expands compact states into the equivalent partials
// representation.
func statesAsPartials[T Real](states []int32, d Dims) []T {
	out := make([]T, d.PartialsLen())
	for c := 0; c < d.CategoryCount; c++ {
		for p := 0; p < d.PatternCount; p++ {
			off := (c*d.PatternCount + p) * d.StateCount
			st := int(states[p])
			if st >= d.StateCount {
				for i := 0; i < d.StateCount; i++ {
					out[off+i] = 1
				}
			} else {
				out[off+st] = 1
			}
		}
	}
	return out
}

func maxDiff[T Real](a, b []T) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestPartialsPartialsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []int{4, 20, 61} {
		pr := newProblem[float64](rng, s, 17, 3)
		got := make([]float64, pr.d.PartialsLen())
		PartialsPartials(got, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 17)
		// Naive reference.
		want := make([]float64, pr.d.PartialsLen())
		for c := 0; c < 3; c++ {
			for p := 0; p < 17; p++ {
				for i := 0; i < s; i++ {
					var a, b float64
					for j := 0; j < s; j++ {
						a += pr.m1[(c*s+i)*s+j] * pr.p1[(c*17+p)*s+j]
						b += pr.m2[(c*s+i)*s+j] * pr.p2[(c*17+p)*s+j]
					}
					want[(c*17+p)*s+i] = a * b
				}
			}
		}
		if d := maxDiff(got, want); d > 1e-12 {
			t.Fatalf("s=%d: PartialsPartials differs from naive by %v", s, d)
		}
	}
}

// normalizeRows rescales each matrix row to sum to 1, making the matrices
// stochastic; the compact-state kernels' gap-state shortcut (factor 1.0)
// assumes probability matrices, whose rows always sum to 1.
func normalizeRows(m []float64, s, cats int) {
	for c := 0; c < cats; c++ {
		for i := 0; i < s; i++ {
			row := m[(c*s+i)*s : (c*s+i+1)*s]
			var sum float64
			for _, v := range row {
				sum += v
			}
			for j := range row {
				row[j] /= sum
			}
		}
	}
}

func TestStatesKernelsMatchExpandedPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range []int{4, 20} {
		pr := newProblem[float64](rng, s, 13, 2)
		normalizeRows(pr.m1, s, 2)
		normalizeRows(pr.m2, s, 2)
		x1 := statesAsPartials[float64](pr.s1, pr.d)
		x2 := statesAsPartials[float64](pr.s2, pr.d)
		n := pr.d.PartialsLen()

		viaStates := make([]float64, n)
		viaPartials := make([]float64, n)
		StatesPartials(viaStates, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 13)
		PartialsPartials(viaPartials, x1, pr.m1, pr.p2, pr.m2, pr.d, 0, 13)
		if d := maxDiff(viaStates, viaPartials); d > 1e-12 {
			t.Fatalf("s=%d: StatesPartials differs from expanded by %v", s, d)
		}

		viaStates2 := make([]float64, n)
		viaPartials2 := make([]float64, n)
		StatesStates(viaStates2, pr.s1, pr.m1, pr.s2, pr.m2, pr.d, 0, 13)
		PartialsPartials(viaPartials2, x1, pr.m1, x2, pr.m2, pr.d, 0, 13)
		if d := maxDiff(viaStates2, viaPartials2); d > 1e-12 {
			t.Fatalf("s=%d: StatesStates differs from expanded by %v", s, d)
		}
	}
}

func TestFourStateKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pr := newProblem[float64](rng, 4, 23, 4)
	n := pr.d.PartialsLen()

	gen := make([]float64, n)
	sse := make([]float64, n)
	PartialsPartials(gen, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 23)
	PartialsPartials4(sse, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 23)
	if d := maxDiff(gen, sse); d > 1e-13 {
		t.Fatalf("PartialsPartials4 differs by %v", d)
	}

	genSP := make([]float64, n)
	sseSP := make([]float64, n)
	StatesPartials(genSP, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 23)
	StatesPartials4(sseSP, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 23)
	if d := maxDiff(genSP, sseSP); d > 1e-13 {
		t.Fatalf("StatesPartials4 differs by %v", d)
	}

	genSS := make([]float64, n)
	sseSS := make([]float64, n)
	StatesStates(genSS, pr.s1, pr.m1, pr.s2, pr.m2, pr.d, 0, 23)
	StatesStates4(sseSS, pr.s1, pr.m1, pr.s2, pr.m2, pr.d, 0, 23)
	requireSameBits(t, "StatesStates4", sseSS, genSS)
}

// TestFMAKernelsMatchGeneric: fused accumulation changes rounding, not values.
func TestFMAKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range []int{4, 61} {
		pr := newProblem[float64](rng, s, 9, 2)
		n := pr.d.PartialsLen()
		ref := make([]float64, n)
		got := make([]float64, n)
		PartialsPartials(ref, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 9)
		PartialsPartialsFMA(got, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 9)
		if d := maxDiff(ref, got); d > 1e-12 {
			t.Fatalf("s=%d: FMA kernel differs by %v", s, d)
		}
	}
}

func TestSinglePrecisionKernelsTrackDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pr64 := newProblem[float64](rng, 4, 15, 2)
	pr32 := &problem[float32]{d: pr64.d, s1: pr64.s1, s2: pr64.s2}
	conv := func(v []float64) []float32 {
		out := make([]float32, len(v))
		for i, x := range v {
			out[i] = float32(x)
		}
		return out
	}
	pr32.p1, pr32.p2 = conv(pr64.p1), conv(pr64.p2)
	pr32.m1, pr32.m2 = conv(pr64.m1), conv(pr64.m2)

	out64 := make([]float64, pr64.d.PartialsLen())
	out32 := make([]float32, pr64.d.PartialsLen())
	PartialsPartials(out64, pr64.p1, pr64.m1, pr64.p2, pr64.m2, pr64.d, 0, 15)
	PartialsPartials(out32, pr32.p1, pr32.m1, pr32.p2, pr32.m2, pr32.d, 0, 15)
	for i := range out64 {
		if math.Abs(out64[i]-float64(out32[i])) > 1e-5 {
			t.Fatalf("precision divergence at %d: %v vs %v", i, out64[i], out32[i])
		}
	}
}

func TestPartitionedExecutionEqualsWhole(t *testing.T) {
	// Computing patterns in chunks (as every threading layer does) must give
	// identical results to one full-range call.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := 1 + rng.Intn(64)
		pr := newProblem[float64](rng, 4, pat, 1+rng.Intn(3))
		whole := make([]float64, pr.d.PartialsLen())
		chunked := make([]float64, pr.d.PartialsLen())
		PartialsPartials(whole, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, pat)
		for lo := 0; lo < pat; {
			hi := lo + 1 + rng.Intn(8)
			if hi > pat {
				hi = pat
			}
			PartialsPartials(chunked, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, lo, hi)
			lo = hi
		}
		return maxDiff(whole, chunked) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUpdateTransitionMatrixIdentityAtZero(t *testing.T) {
	// With branch length 0, P must be the identity for every category.
	e := jcEigen()
	out := make([]float64, 2*16)
	UpdateTransitionMatrix(out, e, 0, []float64{0.5, 2})
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(out[c*16+i*4+j]-want) > 1e-12 {
					t.Fatalf("P(0) not identity at c=%d i=%d j=%d: %v", c, i, j, out[c*16+i*4+j])
				}
			}
		}
	}
}

// jcEigen returns the analytic eigendecomposition of the JC69 rate matrix,
// which has eigenvalues {0, -4/3, -4/3, -4/3}.
func jcEigen() *Eigen {
	// Q = (1/3)·(J − 4I)/... normalized JC: q_ij = 1/3 off-diagonal, -1 diag.
	// Eigenvectors: the all-ones vector (λ=0) and any basis of its complement
	// (λ=-4/3). Use a simple explicit basis.
	v := []float64{
		1, 1, 1, 1,
		1, -1, 0, 0,
		1, 0, -1, 0,
		1, 0, 0, -1,
	}
	// v above is row-major with eigenvectors as columns? Build properly:
	// columns: [1,1,1,1], [1,-1,0,0], [1,0,-1,0], [1,0,0,-1].
	vectors := make([]float64, 16)
	cols := [][]float64{
		{1, 1, 1, 1},
		{1, -1, 0, 0},
		{1, 0, -1, 0},
		{1, 0, 0, -1},
	}
	for j, col := range cols {
		for i := 0; i < 4; i++ {
			vectors[i*4+j] = col[i]
		}
	}
	_ = v
	// Inverse computed analytically.
	inverse := []float64{
		0.25, 0.25, 0.25, 0.25,
		0.25, -0.75, 0.25, 0.25,
		0.25, 0.25, -0.75, 0.25,
		0.25, 0.25, 0.25, -0.75,
	}
	return &Eigen{
		StateCount:     4,
		Values:         []float64{0, -4.0 / 3, -4.0 / 3, -4.0 / 3},
		Vectors:        vectors,
		InverseVectors: inverse,
	}
}

func TestUpdateTransitionMatrixJCClosedForm(t *testing.T) {
	e := jcEigen()
	rates := []float64{0.25, 1, 3}
	out := make([]float64, 3*16)
	bt := 0.4
	UpdateTransitionMatrix(out, e, bt, rates)
	for c, r := range rates {
		same := 0.25 + 0.75*math.Exp(-4*bt*r/3)
		diff := 0.25 - 0.25*math.Exp(-4*bt*r/3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := diff
				if i == j {
					want = same
				}
				if math.Abs(out[c*16+i*4+j]-want) > 1e-12 {
					t.Fatalf("c=%d P[%d,%d]=%v want %v", c, i, j, out[c*16+i*4+j], want)
				}
			}
		}
	}
}

func TestSiteLikelihoodsAndRootLogLikelihood(t *testing.T) {
	// One category, one pattern, hand-computed.
	d := Dims{StateCount: 2, PatternCount: 1, CategoryCount: 1}
	root := []float64{0.2, 0.6}
	freqs := []float64{0.3, 0.7}
	site := make([]float64, 1)
	SiteLikelihoods(site, root, []float64{1}, freqs, d, 0, 1)
	want := 0.3*0.2 + 0.7*0.6
	if math.Abs(site[0]-want) > 1e-15 {
		t.Fatalf("site likelihood %v want %v", site[0], want)
	}
	lnL := RootLogLikelihood(site, []float64{3}, nil, 0, 1)
	if math.Abs(lnL-3*math.Log(want)) > 1e-15 {
		t.Fatalf("lnL %v want %v", lnL, 3*math.Log(want))
	}
	// With a scale factor the result shifts by patternWeight·scale.
	lnLs := RootLogLikelihood(site, []float64{3}, []float64{0.5}, 0, 1)
	if math.Abs(lnLs-(3*math.Log(want)+1.5)) > 1e-12 {
		t.Fatalf("scaled lnL %v", lnLs)
	}
}

func TestSiteLikelihoodsCategoryMixture(t *testing.T) {
	d := Dims{StateCount: 2, PatternCount: 1, CategoryCount: 2}
	// category 0 partials: [1, 0], category 1: [0, 1]
	root := []float64{1, 0, 0, 1}
	freqs := []float64{0.5, 0.5}
	site := make([]float64, 1)
	SiteLikelihoods(site, root, []float64{0.25, 0.75}, freqs, d, 0, 1)
	want := 0.25*0.5 + 0.75*0.5
	if math.Abs(site[0]-want) > 1e-15 {
		t.Fatalf("mixture site likelihood %v want %v", site[0], want)
	}
}

func TestRescaleInvariance(t *testing.T) {
	// Rescaling partials then adding back the log factors must not change
	// site log likelihoods.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Dims{StateCount: 4, PatternCount: 1 + rng.Intn(20), CategoryCount: 1 + rng.Intn(3)}
		root := make([]float64, d.PartialsLen())
		for i := range root {
			root[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(8)-4))
		}
		freqs := []float64{0.25, 0.25, 0.25, 0.25}
		wts := make([]float64, d.CategoryCount)
		for i := range wts {
			wts[i] = 1 / float64(d.CategoryCount)
		}
		patW := make([]float64, d.PatternCount)
		for i := range patW {
			patW[i] = 1
		}

		site := make([]float64, d.PatternCount)
		SiteLikelihoods(site, root, wts, freqs, d, 0, d.PatternCount)
		before := RootLogLikelihood(site, patW, nil, 0, d.PatternCount)

		scale := make([]float64, d.PatternCount)
		RescalePartials(root, scale, d, 0, d.PatternCount)
		SiteLikelihoods(site, root, wts, freqs, d, 0, d.PatternCount)
		after := RootLogLikelihood(site, patW, scale, 0, d.PatternCount)

		return math.Abs(before-after) < 1e-9*(1+math.Abs(before))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRescaleZeroPattern(t *testing.T) {
	d := Dims{StateCount: 2, PatternCount: 1, CategoryCount: 1}
	partials := []float64{0, 0}
	scale := make([]float64, 1)
	RescalePartials(partials, scale, d, 0, 1)
	if scale[0] != 0 || partials[0] != 0 {
		t.Fatalf("zero pattern mishandled: scale=%v partials=%v", scale, partials)
	}
}

func TestAccumulateScaleFactors(t *testing.T) {
	cum := make([]float64, 3)
	AccumulateScaleFactors(cum, [][]float64{
		{1, 2, 3},
		{10, 20, 30},
	}, 0, 3)
	want := []float64{11, 22, 33}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum %v want %v", cum, want)
		}
	}
}

func TestEdgeSiteLikelihoodsMatchesComposition(t *testing.T) {
	// Edge likelihood across matrix m equals rooting at a node whose
	// partials are parent[i] · (m·child)[i].
	rng := rand.New(rand.NewSource(8))
	for _, s := range []int{4, 20} {
		d := Dims{StateCount: s, PatternCount: 7, CategoryCount: 2}
		pr := newProblem[float64](rng, s, 7, 2)
		freqs := make([]float64, s)
		for i := range freqs {
			freqs[i] = 1 / float64(s)
		}
		wts := []float64{0.5, 0.5}

		edge := make([]float64, 7)
		EdgeSiteLikelihoods(edge, pr.p1, pr.p2, pr.m2, wts, freqs, d, 0, 7)

		// Compose: dest = (I·parent) ⊙ (m2·child), then integrate.
		ident := make([]float64, d.MatrixLen())
		for c := 0; c < 2; c++ {
			for i := 0; i < s; i++ {
				ident[(c*s+i)*s+i] = 1
			}
		}
		dest := make([]float64, d.PartialsLen())
		PartialsPartials(dest, pr.p1, ident, pr.p2, pr.m2, d, 0, 7)
		composed := make([]float64, 7)
		SiteLikelihoods(composed, dest, wts, freqs, d, 0, 7)

		for p := 0; p < 7; p++ {
			if math.Abs(edge[p]-composed[p]) > 1e-12 {
				t.Fatalf("s=%d pattern %d: edge %v composed %v", s, p, edge[p], composed[p])
			}
		}
	}
}

func TestDimsHelpers(t *testing.T) {
	d := Dims{StateCount: 4, PatternCount: 10, CategoryCount: 3}
	if d.PartialsLen() != 120 {
		t.Fatalf("PartialsLen %d", d.PartialsLen())
	}
	if d.MatrixLen() != 48 {
		t.Fatalf("MatrixLen %d", d.MatrixLen())
	}
}
