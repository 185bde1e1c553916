package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	})
	vals, vecs, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalues %v want %v", vals, want)
		}
	}
	// Reconstruct: V·Λ·Vᵀ == A.
	lam := NewMatrix(3, 3)
	for i, v := range vals {
		lam.Data[i*3+i] = v
	}
	recon := mustMul(mustMul(vecs, lam), vecs.Transpose())
	if mustDiff(recon, a) > 1e-10 {
		t.Fatalf("reconstruction error %v", mustDiff(recon, a))
	}
}

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	vals, _, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v want [1 3]", vals)
	}
}

func TestSymmetricEigenReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Data[i*n+j] = v
				a.Data[j*n+i] = v
			}
		}
		vals, vecs, err := SymmetricEigen(a)
		if err != nil {
			return false
		}
		// Eigenvalues sorted ascending.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		lam := NewMatrix(n, n)
		for i, v := range vals {
			lam.Data[i*n+i] = v
		}
		recon := mustMul(mustMul(vecs, lam), vecs.Transpose())
		if mustDiff(recon, a) > 1e-8 {
			return false
		}
		// Orthonormal eigenvectors.
		return mustDiff(mustMul(vecs.Transpose(), vecs), Identity(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomReversibleQ builds a reversible rate matrix from random exchange
// rates and frequencies (a GTR-style construction).
func randomReversibleQ(rng *rand.Rand, n int) (*Matrix, []float64) {
	pi := make([]float64, n)
	var sum float64
	for i := range pi {
		pi[i] = 0.1 + rng.Float64()
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	q := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := 0.1 + rng.Float64()
			q.Data[i*n+j] = r * pi[j]
			q.Data[j*n+i] = r * pi[i]
		}
	}
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += q.Data[i*n+j]
			}
		}
		q.Data[i*n+i] = -rowSum
	}
	return q, pi
}

func TestReversibleEigenReconstructsQ(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{4, 20, 61} {
		q, pi := randomReversibleQ(rng, n)
		ed, err := ReversibleEigen(q, pi)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lam := NewMatrix(n, n)
		for i, v := range ed.Values {
			lam.Data[i*n+i] = v
		}
		recon := mustMul(mustMul(ed.Vectors, lam), ed.InverseVectors)
		if d := mustDiff(recon, q); d > 1e-8 {
			t.Fatalf("n=%d reconstruction error %v", n, d)
		}
		// V·V⁻¹ == I.
		if d := mustDiff(mustMul(ed.Vectors, ed.InverseVectors), Identity(n)); d > 1e-8 {
			t.Fatalf("n=%d inverse-vector error %v", n, d)
		}
	}
}

func TestTransitionMatrixProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, pi := randomReversibleQ(rng, 4)
	ed, err := ReversibleEigen(q, pi)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 16)

	// P(0) == I.
	mustTransition(ed, 0, p)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(p[i*4+j]-want) > 1e-10 {
				t.Fatalf("P(0) not identity: %v", p)
			}
		}
	}

	// Rows of P(t) sum to 1 and entries are in [0,1].
	for _, tt := range []float64{0.01, 0.1, 1, 10} {
		mustTransition(ed, tt, p)
		for i := 0; i < 4; i++ {
			var row float64
			for j := 0; j < 4; j++ {
				v := p[i*4+j]
				if v < 0 || v > 1+1e-12 {
					t.Fatalf("P(%v)[%d,%d]=%v out of range", tt, i, j, v)
				}
				row += v
			}
			if math.Abs(row-1) > 1e-9 {
				t.Fatalf("P(%v) row %d sums to %v", tt, i, row)
			}
		}
	}

	// P(t) converges to the stationary distribution as t grows.
	mustTransition(ed, 500, p)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(p[i*4+j]-pi[j]) > 1e-6 {
				t.Fatalf("P(∞)[%d,%d]=%v want pi[%d]=%v", i, j, p[i*4+j], j, pi[j])
			}
		}
	}
}

func TestTransitionMatrixSemigroupProperty(t *testing.T) {
	// P(s+t) == P(s)·P(t): the Chapman–Kolmogorov property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, pi := randomReversibleQ(rng, 4)
		ed, err := ReversibleEigen(q, pi)
		if err != nil {
			return false
		}
		s := 0.05 + rng.Float64()
		u := 0.05 + rng.Float64()
		ps := make([]float64, 16)
		pu := make([]float64, 16)
		psu := make([]float64, 16)
		mustTransition(ed, s, ps)
		mustTransition(ed, u, pu)
		mustTransition(ed, s+u, psu)
		prod := mustMul(NewMatrixFrom(4, 4, ps), NewMatrixFrom(4, 4, pu))
		return mustDiff(prod, NewMatrixFrom(4, 4, psu)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReversibleEigenErrors(t *testing.T) {
	q := NewMatrix(3, 4)
	if _, err := ReversibleEigen(q, []float64{0.5, 0.5, 0}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
	q2, pi := randomReversibleQ(rand.New(rand.NewSource(1)), 4)
	if _, err := ReversibleEigen(q2, pi[:3]); err == nil {
		t.Fatal("expected error for pi length mismatch")
	}
	bad := []float64{0.5, 0.5, 0, 0}
	if _, err := ReversibleEigen(q2, bad); err == nil {
		t.Fatal("expected error for zero frequency")
	}
}
