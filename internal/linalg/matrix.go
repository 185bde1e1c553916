// Package linalg provides the small dense linear-algebra routines that
// statistical phylogenetics needs: matrix products and a Jacobi eigensolver
// used to decompose reversible substitution rate matrices so that transition
// probability matrices P(t) = U·exp(Λt)·U⁻¹ can be formed for arbitrary
// branch lengths.
//
// All matrices are dense, row-major, and sized at most a few hundred rows
// (4 for nucleotide models, 20 for amino-acid models, 61 for codon models),
// so simple O(n³) algorithms are appropriate and allocation-free inner loops
// matter more than asymptotics.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given dimensions. Dimensions are
// model state counts fixed at compile time by every caller (4, 20, 61), so
// a non-positive dimension is an unreachable programmer error, not a
// recoverable condition.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		//beagle:allow panic constructor invariant; every call site passes static positive model dimensions
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom returns a matrix wrapping a copy of data, which must have
// rows*cols elements.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		//beagle:allow panic constructor invariant; callers pass literals or buffers sized from the same dimensions
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.Data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewMatrixFrom(m.Rows, m.Cols, m.Data)
}

// Mul returns the matrix product a·b, or an error on a dimension mismatch.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v, or an error when the vector
// length does not match the matrix columns.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("linalg: vector length %d does not match matrix cols %d", len(v), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, or an error when their dimensions differ.
func MaxAbsDiff(a, b *Matrix) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("linalg: dimension mismatch %dx%d vs %dx%d in MaxAbsDiff", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var max float64
	for i, av := range a.Data {
		d := math.Abs(av - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max, nil
}
