package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// jacobiMaxSweeps bounds the number of Jacobi sweeps; 4-to-61-state matrices
// converge in well under 20 sweeps.
const jacobiMaxSweeps = 100

// SymmetricEigen computes the eigendecomposition of the symmetric matrix a:
// a = V·diag(values)·Vᵀ, using the cyclic Jacobi method. Eigenvalues are
// returned in ascending order with matching eigenvector columns. The input is
// not modified.
func SymmetricEigen(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: eigendecomposition requires a square matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := Identity(n)

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.Data[i*n+j] * w.Data[i*n+j]
			}
		}
		if off < 1e-30 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.Data[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.Data[p*n+p]
				aqq := w.Data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				tau := s / (1 + c)

				w.Data[p*n+p] = app - t*apq
				w.Data[q*n+q] = aqq + t*apq
				w.Data[p*n+q] = 0
				w.Data[q*n+p] = 0
				for i := 0; i < n; i++ {
					if i != p && i != q {
						aip := w.Data[i*n+p]
						aiq := w.Data[i*n+q]
						w.Data[i*n+p] = aip - s*(aiq+tau*aip)
						w.Data[i*n+q] = aiq + s*(aip-tau*aiq)
						w.Data[p*n+i] = w.Data[i*n+p]
						w.Data[q*n+i] = w.Data[i*n+q]
					}
				}
				for i := 0; i < n; i++ {
					vip := v.Data[i*n+p]
					viq := v.Data[i*n+q]
					v.Data[i*n+p] = vip - s*(viq+tau*vip)
					v.Data[i*n+q] = viq + s*(vip-tau*viq)
				}
			}
		}
	}

	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.Data[i*n+i]
	}
	// Sort eigenvalues ascending, permuting eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for i := 0; i < n; i++ {
			sortedVecs.Data[i*n+newCol] = v.Data[i*n+oldCol]
		}
	}
	return sortedVals, sortedVecs, nil
}

// EigenDecomposition holds the spectral decomposition of a rate matrix Q:
// Q = Vectors·diag(Values)·InverseVectors, so that the transition probability
// matrix for time t is P(t) = Vectors·diag(exp(Values·t))·InverseVectors.
type EigenDecomposition struct {
	StateCount     int
	Values         []float64 // eigenvalues, length StateCount
	Vectors        *Matrix   // right eigenvectors as columns
	InverseVectors *Matrix
}

// ReversibleEigen decomposes a time-reversible rate matrix Q with stationary
// distribution pi. Reversibility (pi_i·q_ij == pi_j·q_ji) means the
// similarity transform B = D^{1/2}·Q·D^{-1/2} with D = diag(pi) is symmetric,
// so the symmetric Jacobi solver applies and the inverse eigenvector matrix
// follows analytically from the orthogonality of B's eigenvectors.
func ReversibleEigen(q *Matrix, pi []float64) (*EigenDecomposition, error) {
	n := q.Rows
	if q.Cols != n {
		return nil, errors.New("linalg: rate matrix must be square")
	}
	if len(pi) != n {
		return nil, errors.New("linalg: stationary distribution length mismatch")
	}
	for _, p := range pi {
		if p <= 0 {
			return nil, errors.New("linalg: stationary frequencies must be positive")
		}
	}
	sqrtPi := make([]float64, n)
	invSqrtPi := make([]float64, n)
	for i, p := range pi {
		sqrtPi[i] = math.Sqrt(p)
		invSqrtPi[i] = 1 / sqrtPi[i]
	}
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Data[i*n+j] = sqrtPi[i] * q.Data[i*n+j] * invSqrtPi[j]
		}
	}
	// Force exact symmetry against floating-point asymmetry in Q.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (b.Data[i*n+j] + b.Data[j*n+i]) / 2
			b.Data[i*n+j] = m
			b.Data[j*n+i] = m
		}
	}
	values, w, err := SymmetricEigen(b)
	if err != nil {
		return nil, err
	}
	// Q = D^{-1/2}·B·D^{1/2} = (D^{-1/2}·W)·Λ·(Wᵀ·D^{1/2}).
	vectors := NewMatrix(n, n)
	inverse := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vectors.Data[i*n+j] = invSqrtPi[i] * w.Data[i*n+j]
			inverse.Data[i*n+j] = w.Data[j*n+i] * sqrtPi[j]
		}
	}
	return &EigenDecomposition{
		StateCount:     n,
		Values:         values,
		Vectors:        vectors,
		InverseVectors: inverse,
	}, nil
}

// TransitionMatrix fills p (length StateCount²) with P(t) = V·exp(Λt)·V⁻¹,
// returning an error when the buffer length does not match. Small negative
// entries from round-off are clamped to zero.
func (e *EigenDecomposition) TransitionMatrix(t float64, p []float64) error {
	n := e.StateCount
	if len(p) != n*n {
		return fmt.Errorf("linalg: transition matrix buffer has length %d, want %d", len(p), n*n)
	}
	exp := make([]float64, n)
	for k, v := range e.Values {
		exp[k] = math.Exp(v * t)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += e.Vectors.Data[i*n+k] * exp[k] * e.InverseVectors.Data[k*n+j]
			}
			if s < 0 {
				s = 0
			}
			p[i*n+j] = s
		}
	}
	return nil
}
