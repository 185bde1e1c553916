package substmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gobeagle/internal/linalg"
)

// checkRateMatrixInvariants verifies the structural invariants any normalized
// reversible rate matrix must satisfy.
func checkRateMatrixInvariants(t *testing.T, m *Model) {
	t.Helper()
	n := m.StateCount
	if m.Q.Rows != n || m.Q.Cols != n {
		t.Fatalf("Q shape %dx%d for %d states", m.Q.Rows, m.Q.Cols, n)
	}
	// Rows sum to zero.
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			v := m.Q.At(i, j)
			if i != j && v < 0 {
				t.Fatalf("negative off-diagonal rate q[%d,%d]=%v", i, j, v)
			}
			s += v
		}
		if math.Abs(s) > 1e-10 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Detailed balance: π_i q_ij == π_j q_ji.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lhs := m.Frequencies[i] * m.Q.At(i, j)
			rhs := m.Frequencies[j] * m.Q.At(j, i)
			if math.Abs(lhs-rhs) > 1e-12 {
				t.Fatalf("detailed balance violated at %d,%d: %v vs %v", i, j, lhs, rhs)
			}
		}
	}
	// Normalization: −Σ π_i q_ii == 1.
	var mean float64
	for i := 0; i < n; i++ {
		mean -= m.Frequencies[i] * m.Q.At(i, i)
	}
	if math.Abs(mean-1) > 1e-10 {
		t.Fatalf("mean rate %v, want 1", mean)
	}
}

func TestJC69(t *testing.T) {
	m := NewJC69()
	checkRateMatrixInvariants(t, m)
	// All off-diagonal rates equal 1/3 after normalization.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && math.Abs(m.Q.At(i, j)-1.0/3) > 1e-12 {
				t.Fatalf("JC69 rate q[%d,%d]=%v want 1/3", i, j, m.Q.At(i, j))
			}
		}
	}
}

func TestJC69TransitionProbabilityClosedForm(t *testing.T) {
	// JC69 has the closed form p_same = 1/4 + 3/4·exp(-4t/3).
	m := NewJC69()
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 16)
	for _, bt := range []float64{0.05, 0.2, 1.0, 3.0} {
		if err := ed.TransitionMatrix(bt, p); err != nil {
			t.Fatal(err)
		}
		same := 0.25 + 0.75*math.Exp(-4*bt/3)
		diff := 0.25 - 0.25*math.Exp(-4*bt/3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := diff
				if i == j {
					want = same
				}
				if math.Abs(p[i*4+j]-want) > 1e-10 {
					t.Fatalf("t=%v P[%d,%d]=%v want %v", bt, i, j, p[i*4+j], want)
				}
			}
		}
	}
}

func TestK80(t *testing.T) {
	m, err := NewK80(2.5)
	if err != nil {
		t.Fatal(err)
	}
	checkRateMatrixInvariants(t, m)
	// Transitions (A↔G, C↔T) are kappa times transversions.
	ratio := m.Q.At(BaseA, BaseG) / m.Q.At(BaseA, BaseC)
	if math.Abs(ratio-2.5) > 1e-12 {
		t.Fatalf("transition/transversion ratio %v want 2.5", ratio)
	}
	if _, err := NewK80(0); err == nil {
		t.Fatal("expected error for kappa=0")
	}
}

func TestHKY85(t *testing.T) {
	freqs := []float64{0.35, 0.15, 0.2, 0.3}
	m, err := NewHKY85(3, freqs)
	if err != nil {
		t.Fatal(err)
	}
	checkRateMatrixInvariants(t, m)
	// q_AG / π_G should equal kappa times q_AC / π_C.
	r1 := m.Q.At(BaseA, BaseG) / freqs[BaseG]
	r2 := m.Q.At(BaseA, BaseC) / freqs[BaseC]
	if math.Abs(r1/r2-3) > 1e-12 {
		t.Fatalf("kappa recovered as %v want 3", r1/r2)
	}
	if _, err := NewHKY85(2, []float64{0.5, 0.5}); err == nil {
		t.Fatal("expected error for wrong frequency count")
	}
	if _, err := NewHKY85(-1, freqs); err == nil {
		t.Fatal("expected error for negative kappa")
	}
}

func TestGTRReducesToJC(t *testing.T) {
	m, err := NewGTR([]float64{1, 1, 1, 1, 1, 1}, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	jc := NewJC69()
	d, err := linalg.MaxAbsDiff(m.Q, jc.Q)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Fatalf("uniform GTR differs from JC69 by %v", d)
	}
}

func TestGTRInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rates := make([]float64, 6)
		for i := range rates {
			rates[i] = 0.1 + rng.Float64()*5
		}
		freqs := randomFreqs(rng, 4)
		m, err := NewGTR(rates, freqs)
		if err != nil {
			return false
		}
		// Detailed balance and normalization.
		var mean float64
		for i := 0; i < 4; i++ {
			mean -= m.Frequencies[i] * m.Q.At(i, i)
			for j := i + 1; j < 4; j++ {
				if math.Abs(m.Frequencies[i]*m.Q.At(i, j)-m.Frequencies[j]*m.Q.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		return math.Abs(mean-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGTRErrors(t *testing.T) {
	if _, err := NewGTR([]float64{1, 2, 3}, []float64{0.25, 0.25, 0.25, 0.25}); err == nil {
		t.Fatal("expected error for wrong rate count")
	}
	if _, err := NewGTR([]float64{1, 1, 1, 1, 1, 1}, []float64{0.3, 0.3, 0.3, 0.3}); err == nil {
		t.Fatal("expected error for frequencies not summing to 1")
	}
	if _, err := NewGTR([]float64{1, 1, -1, 1, 1, 1}, []float64{0.25, 0.25, 0.25, 0.25}); err == nil {
		t.Fatal("expected error for negative exchangeability")
	}
}

func randomFreqs(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	var sum float64
	for i := range f {
		f[i] = 0.05 + rng.Float64()
		sum += f[i]
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

func TestPoissonAA(t *testing.T) {
	m, err := NewPoissonAA(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.StateCount != 20 {
		t.Fatalf("state count %d", m.StateCount)
	}
	checkRateMatrixInvariants(t, m)
	if _, err := NewPoissonAA(make([]float64, 5)); err == nil {
		t.Fatal("expected error for wrong frequency count")
	}
}

func TestGTRAA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rates := make([]float64, 190)
	for i := range rates {
		rates[i] = 0.1 + rng.Float64()
	}
	m, err := NewGTRAA(rates, randomFreqs(rng, 20))
	if err != nil {
		t.Fatal(err)
	}
	checkRateMatrixInvariants(t, m)
	// Eigendecomposition must reconstruct Q.
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	lam := linalg.NewMatrix(20, 20)
	for i, v := range ed.Values {
		lam.Data[i*20+i] = v
	}
	vl, err := linalg.Mul(ed.Vectors, lam)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := linalg.Mul(vl, ed.InverseVectors)
	if err != nil {
		t.Fatal(err)
	}
	d, err := linalg.MaxAbsDiff(recon, m.Q)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-8 {
		t.Fatalf("eigen reconstruction error %v", d)
	}
}

func TestSiteRates(t *testing.T) {
	sr := SingleRate()
	if len(sr.Rates) != 1 || sr.Rates[0] != 1 || sr.Weights[0] != 1 {
		t.Fatalf("SingleRate: %+v", sr)
	}
	g, err := GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rates) != 4 || len(g.Weights) != 4 {
		t.Fatalf("GammaRates lengths: %+v", g)
	}
	var mean float64
	for i := range g.Rates {
		mean += g.Rates[i] * g.Weights[i]
	}
	if math.Abs(mean-1) > 1e-9 {
		t.Fatalf("gamma rates mean %v", mean)
	}
	if _, err := GammaRates(-1, 4); err == nil {
		t.Fatal("expected error for negative alpha")
	}
}

func TestNewGeneralReversibleErrors(t *testing.T) {
	if _, err := NewGeneralReversible("x", nil, []float64{1}); err == nil {
		t.Fatal("expected error for single state")
	}
	if _, err := NewGeneralReversible("x", []float64{1}, []float64{0.5, 0.25, 0.25}); err == nil {
		t.Fatal("expected error for wrong rate count")
	}
	if _, err := NewGeneralReversible("x", []float64{1}, []float64{0.5, -0.5}); err == nil {
		t.Fatal("expected error for negative frequency")
	}
}

func TestNewNucleotide(t *testing.T) {
	freqs := []float64{0.35, 0.15, 0.2, 0.3}
	rates := []float64{1, 2, 0.5, 1, 3, 1}
	k80, _ := NewK80(2.5)
	hky, _ := NewHKY85(2.5, freqs)
	gtr, _ := NewGTR(rates, freqs)
	for _, c := range []struct {
		name string
		want *Model
	}{{"jc", NewJC69()}, {"k80", k80}, {"hky", hky}, {"gtr", gtr}} {
		m, err := NewNucleotide(c.name, 2.5, rates, freqs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Name != c.want.Name || !slices.Equal(m.Q.Data, c.want.Q.Data) || !slices.Equal(m.Frequencies, c.want.Frequencies) {
			t.Errorf("%s built %s, not the direct constructor's %s", c.name, m.Name, c.want.Name)
		}
	}
	if _, err := NewNucleotide("gy94", 2, rates, freqs); err == nil {
		t.Error("a codon model name must be refused")
	}
	if _, err := NewNucleotide("gtr", 2, nil, freqs); err == nil {
		t.Error("gtr without exchangeabilities must be refused")
	}
}
