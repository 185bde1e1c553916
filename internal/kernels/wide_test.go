package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func requireSameBits[T Real](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s: element %d is %v, generic %v", what, i, got[i], want[i])
		}
	}
}

func testWideMatchesGeneric[T Real](t *testing.T) {
	for _, s := range []int{5, 8, 20, 21, 61, 64} {
		for _, c := range []int{1, 4} {
			const patterns = 23
			pr := newProblem[T](rand.New(rand.NewSource(int64(100*s+c))), s, patterns, c)
			// Gap codes (any value ≥ S) in either child, beside the
			// occasional ones newProblem draws.
			pr.s1[0], pr.s1[7], pr.s2[3] = int32(s), int32(s+5), int32(s)
			// Odd splits, including an empty and a one-pattern span: the
			// kernels must write [lo, hi) and nothing else.
			for _, span := range [][2]int{{0, patterns}, {0, 0}, {3, 4}, {1, 12}, {12, patterns}, {5, 22}} {
				lo, hi := span[0], span[1]
				name := fmt.Sprintf("S=%d C=%d [%d,%d)", s, c, lo, hi)
				got := make([]T, pr.d.PartialsLen())
				want := make([]T, pr.d.PartialsLen())
				for i := range got {
					got[i], want[i] = -3, -3
				}
				PartialsPartialsWide(got, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, lo, hi)
				PartialsPartials(want, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, lo, hi)
				requireSameBits(t, name+" PartialsPartials", got, want)
				StatesPartialsWide(got, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, lo, hi)
				StatesPartials(want, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, lo, hi)
				requireSameBits(t, name+" StatesPartials", got, want)
				StatesPartialsWide(got, pr.s2, pr.m2, pr.p1, pr.m1, pr.d, lo, hi)
				StatesPartials(want, pr.s2, pr.m2, pr.p1, pr.m1, pr.d, lo, hi)
				requireSameBits(t, name+" StatesPartials, children swapped", got, want)
			}
		}
	}
}

// TestWideMatchesGeneric holds the wide family to the generic kernels bit for
// bit, whichever body VecMatT runs.
func TestWideMatchesGeneric(t *testing.T) {
	t.Run("float64", testWideMatchesGeneric[float64])
	t.Run("float32", testWideMatchesGeneric[float32])
}

// TestWideOutsideRangeRunsGeneric covers the state counts the wide kernels
// hand to the generic ones.
func TestWideOutsideRangeRunsGeneric(t *testing.T) {
	for _, s := range []int{2, 4, MaxWideStates + 1} {
		pr := newProblem[float64](rand.New(rand.NewSource(int64(s))), s, 9, 2)
		got := make([]float64, pr.d.PartialsLen())
		want := make([]float64, pr.d.PartialsLen())
		PartialsPartialsWide(got, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 9)
		PartialsPartials(want, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 9)
		requireSameBits(t, fmt.Sprintf("S=%d PartialsPartials", s), got, want)
		StatesPartialsWide(got, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 9)
		StatesPartials(want, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 9)
		requireSameBits(t, fmt.Sprintf("S=%d StatesPartials", s), got, want)
	}
}

// updateTransitionMatrixRef is UpdateTransitionMatrix as it was before the
// row-at-a-time form: the entry-wise triple loop, kept as the reference.
func updateTransitionMatrixRef[T Real](out []T, e *Eigen, edgeLength float64, catRates []float64) {
	s := e.StateCount
	tmp := make([]float64, s)
	for c, r := range catRates {
		t := edgeLength * r
		for k, v := range e.Values {
			tmp[k] = math.Exp(v * t)
		}
		base := c * s * s
		for i := 0; i < s; i++ {
			vi := e.Vectors[i*s : (i+1)*s]
			for j := 0; j < s; j++ {
				var sum float64
				for k := 0; k < s; k++ {
					sum += vi[k] * tmp[k] * e.InverseVectors[k*s+j]
				}
				if sum < 0 {
					sum = 0
				}
				out[base+i*s+j] = T(sum)
			}
		}
	}
}

func testUpdateTransitionMatrixMatchesLoop[T Real](t *testing.T) {
	for _, s := range []int{2, 4, 5, 8, 20, 21, 61, 64, MaxWideStates + 6} {
		rng := rand.New(rand.NewSource(int64(s)))
		e := &Eigen{StateCount: s, Values: make([]float64, s), Vectors: make([]float64, s*s), InverseVectors: make([]float64, s*s)}
		for i := range e.Values {
			e.Values[i] = -3 * rng.Float64()
		}
		// Not a real decomposition: signed entries make about half the sums
		// negative, so the clamp is exercised, and magnitudes spread enough
		// that narrowing to float32 rounds.
		for i := range e.Vectors {
			e.Vectors[i] = rng.NormFloat64()
			e.InverseVectors[i] = rng.NormFloat64() * math.Exp(3*rng.NormFloat64())
		}
		rates := []float64{0.3, 1, 2.5}
		got := make([]T, len(rates)*s*s)
		want := make([]T, len(rates)*s*s)
		UpdateTransitionMatrix(got, e, 0.17, rates)
		updateTransitionMatrixRef(want, e, 0.17, rates)
		var clamped int
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("S=%d: entry %d is %v, triple loop %v", s, i, got[i], want[i])
			}
			if want[i] == 0 {
				clamped++
				if math.Signbit(float64(got[i])) {
					t.Fatalf("S=%d: clamped entry %d is -0", s, i)
				}
			}
		}
		if clamped == 0 || clamped == len(want) {
			t.Fatalf("S=%d: %d of %d entries clamped; the test no longer exercises both sides of the clamp", s, clamped, len(want))
		}
	}
}

// testUpdateTransitionMatrix4MatchesLoop holds the unrolled 4-state body to
// the loop over 2 000 random decompositions. Edge lengths include 0 and
// 1e3, every tenth decomposition has a zero eigenvalue, and about one entry
// of V and V⁻¹ in four is a signed zero, so whole sums of zero products
// occur: the loop's leading 0 + makes those +0, and an unrolled body that
// dropped it would return −0.
func testUpdateTransitionMatrix4MatchesLoop[T Real](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := &Eigen{StateCount: 4, Values: make([]float64, 4), Vectors: make([]float64, 16), InverseVectors: make([]float64, 16)}
	entry := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return rng.NormFloat64() * math.Exp(2*rng.NormFloat64())
	}
	rates := []float64{0.05, 0.6, 1.4, 3}
	got := make([]T, len(rates)*16)
	want := make([]T, len(rates)*16)
	var negZeroSums, clamped int
	for n := 0; n < 2000; n++ {
		for k := range e.Values {
			e.Values[k] = -3 * rng.Float64()
		}
		if n%10 == 0 {
			e.Values[rng.Intn(4)] = 0
		}
		for k := range e.Vectors {
			e.Vectors[k], e.InverseVectors[k] = entry(), entry()
		}
		edge := []float64{0, 1e3, 0.17, rng.ExpFloat64()}[n%4]
		UpdateTransitionMatrix(got, e, edge, rates)
		updateTransitionMatrixRef(want, e, edge, rates)
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("decomposition %d, edge %v: entry %d is %v, loop %v", n, edge, i, got[i], want[i])
			}
			if want[i] == 0 {
				clamped++
			}
		}
		negZeroSums += negZeroSums4(e, edge, rates)
	}
	if negZeroSums == 0 || clamped == 0 {
		t.Fatalf("%d sums −0 without the leading 0 +, %d zero entries: the test no longer reaches the signed-zero and clamp cases", negZeroSums, clamped)
	}
}

// negZeroSums4 counts the 4-state entries whose sum, started from the first
// product instead of from 0, would be −0.
func negZeroSums4(e *Eigen, edge float64, rates []float64) int {
	var n int
	for _, r := range rates {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				sum := e.Vectors[i*4] * math.Exp(e.Values[0]*(edge*r)) * e.InverseVectors[j]
				for k := 1; k < 4; k++ {
					sum += e.Vectors[i*4+k] * math.Exp(e.Values[k]*(edge*r)) * e.InverseVectors[k*4+j]
				}
				if sum == 0 && math.Signbit(sum) {
					n++
				}
			}
		}
	}
	return n
}

// TestUpdateTransitionMatrixMatchesLoop holds UpdateTransitionMatrix — its
// entry-wise loop, its unrolled 4-state body and its row-at-a-time form —
// to the old loop's bits, including the sum < 0 → 0 clamp and the narrowing
// to T.
func TestUpdateTransitionMatrixMatchesLoop(t *testing.T) {
	t.Run("float64", testUpdateTransitionMatrixMatchesLoop[float64])
	t.Run("float32", testUpdateTransitionMatrixMatchesLoop[float32])
	t.Run("4states/float64", testUpdateTransitionMatrix4MatchesLoop[float64])
	t.Run("4states/float32", testUpdateTransitionMatrix4MatchesLoop[float32])
}

// TestWideKernelsAllocateNothing is the runtime half of the wide kernels'
// and the matrix kernels' (UpdateTransitionMatrix and the derivative
// matrices) //beagle:noalloc contract: the scratch must
// stay on the stack for every state count up to MaxWideStates.
func TestWideKernelsAllocateNothing(t *testing.T) {
	for _, s := range []int{4, 20, 61, MaxWideStates} {
		rng := rand.New(rand.NewSource(int64(s)))
		pr := newProblem[float64](rng, s, 8, 2)
		pr32 := newProblem[float32](rng, s, 8, 2)
		dest, dest32 := make([]float64, pr.d.PartialsLen()), make([]float32, pr.d.PartialsLen())
		e := &Eigen{StateCount: s, Values: pr.p1[:s], Vectors: pr.m1[:s*s], InverseVectors: pr.m2[:s*s]}
		rates := []float64{0.5, 1.5}
		mat, mat32 := make([]float64, pr.d.MatrixLen()), make([]float32, pr.d.MatrixLen())
		allocs := testing.AllocsPerRun(20, func() {
			PartialsPartialsWide(dest, pr.p1, pr.m1, pr.p2, pr.m2, pr.d, 0, 8)
			StatesPartialsWide(dest, pr.s1, pr.m1, pr.p2, pr.m2, pr.d, 0, 8)
			PartialsPartialsWide(dest32, pr32.p1, pr32.m1, pr32.p2, pr32.m2, pr32.d, 0, 8)
			StatesPartialsWide(dest32, pr32.s1, pr32.m1, pr32.p2, pr32.m2, pr32.d, 0, 8)
			UpdateTransitionMatrix(mat, e, 0.1, rates)
			UpdateTransitionMatrix(mat32, e, 0.1, rates)
			UpdateTransitionDerivatives(mat, nil, e, 0.1, rates)
			UpdateTransitionDerivatives(mat32, mat32, e, 0.1, rates)
		})
		if allocs != 0 {
			t.Errorf("S=%d: wide and matrix kernels allocate %.1f times per run, want 0", s, allocs)
		}
	}
}
