package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// vecMatTRef is the scalar kernel's loop nest — output by output, j
// ascending, one multiply and one add per step — that VecMatT must reproduce
// bit for bit.
func vecMatTRef[T Real](acc, mt, v []T, n, stride int) {
	for i := 0; i < stride; i++ {
		var sum T
		for j := 0; j < n; j++ {
			sum += mt[j*stride+i] * v[j]
		}
		acc[i] = sum
	}
}

func bitsEqual[T Real](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) // widening is exact and keeps the sign of zero
}

// vecMatSpecials are the finite values rounding and zero handling are most
// likely to differ on: signed zeros, denormals, magnitudes whose products
// stay just inside the format. tiny is T's smallest denormal, big² · 64 its
// largest safe sum.
func vecMatSpecials[T Real](tiny, big float64) []T {
	negZero := T(math.Copysign(0, -1))
	return []T{0, negZero, T(tiny), T(-tiny), T(tiny * 1000), 1, -1, T(big), T(-big), T(1 / big), T(-1 / big)}
}

func randomOperand[T Real](rng *rand.Rand, n int, specials []T) []T {
	out := make([]T, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = specials[rng.Intn(len(specials))]
		case 1:
			out[i] = T(rng.NormFloat64() * 1e-300) // denormal in float32, tiny in float64
		default:
			out[i] = T(rng.NormFloat64())
		}
	}
	return out
}

func testVecMatTExact[T Real](t *testing.T, specials []T) {
	rng := rand.New(rand.NewSource(16))
	perVector := lanes[T]()
	for n := 1; n <= 64; n++ {
		// Every legal stride for the wide range, plus strides off the lane
		// multiple, which the wrapper must route to the Go body.
		for stride := 1; stride <= MaxWideStates; stride++ {
			if stride%perVector != 0 && stride > 9 {
				continue
			}
			mt := randomOperand(rng, n*stride, specials)
			v := randomOperand(rng, n, specials)
			got := make([]T, stride+3)
			want := make([]T, stride+3)
			for i := range got {
				got[i], want[i] = 7, 7 // canaries past the outputs
			}
			VecMatT(got, mt, v, n, stride)
			vecMatTRef(want, mt, v, n, stride)
			for i := range want {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("n=%d stride=%d: acc[%d] = %v (%#x), scalar loop %v (%#x)", n, stride, i,
						got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
				}
			}
		}
	}
}

// TestVecMatTExact holds the primitive — assembly where the CPU has it, the
// Go body otherwise and under -tags purego — to the scalar loop's bits.
func TestVecMatTExact(t *testing.T) {
	t.Logf("VecMatT accelerated: %v", vecMatAccelerated)
	t.Run("float64", func(t *testing.T) {
		testVecMatTExact(t, vecMatSpecials[float64](math.SmallestNonzeroFloat64, 1e150))
	})
	t.Run("float32", func(t *testing.T) {
		testVecMatTExact(t, vecMatSpecials[float32](math.SmallestNonzeroFloat32, 1e17))
	})
}

func TestVecMatTZeroRows(t *testing.T) {
	acc := []float64{1, 2, 3, 4}
	VecMatT(acc, nil, nil, 0, 4)
	for i, x := range acc {
		if !bitsEqual(x, 0) {
			t.Errorf("acc[%d] = %v after an empty sum, want +0", i, x)
		}
	}
}

func TestVecMatTAllocatesNothing(t *testing.T) {
	mt64, v64, acc64 := make([]float64, 61*64), make([]float64, 61), make([]float64, 64)
	mt32, v32, acc32 := make([]float32, 61*64), make([]float32, 61), make([]float32, 64)
	allocs := testing.AllocsPerRun(100, func() {
		VecMatT(acc64, mt64, v64, 61, 64)
		VecMatT(acc32, mt32, v32, 61, 64)
		VecMatT(acc64, mt64, v64, 61, 61) // Go body
		_ = padStride[float32](61) + lanes[float64]()
	})
	if allocs != 0 {
		t.Errorf("VecMatT allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzVecMatT drives the exported wrapper with arbitrary geometry against
// arbitrary slice lengths: it must either compute the scalar loop's bits or
// panic on a Go slice bound — never read or write past a slice, which the
// canary elements and the race/checkptr-free assembly boundary would show as
// a corrupted neighbour or a fault.
func FuzzVecMatT(f *testing.F) {
	f.Add(int64(1), 61, 64, 64, 61*64, 61)
	f.Add(int64(2), 20, 20, 20, 400, 20)
	f.Add(int64(3), 5, 8, 7, 40, 5)   // acc too short
	f.Add(int64(4), 5, 8, 8, 39, 5)   // mt too short
	f.Add(int64(5), 5, 8, 8, 40, 4)   // v too short
	f.Add(int64(6), -1, 8, 8, 40, 5)  // negative n
	f.Add(int64(7), 3, -4, 8, 40, 5)  // negative stride
	f.Add(int64(8), 0, 16, 16, 0, 0)  // empty sum
	f.Add(int64(9), 7, 13, 13, 91, 7) // stride off the lane multiple
	f.Fuzz(func(t *testing.T, seed int64, n, stride, accLen, mtLen, vLen int) {
		const maxLen = 1 << 13
		if accLen < 0 || mtLen < 0 || vLen < 0 || accLen > maxLen || mtLen > maxLen || vLen > maxLen {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		// Each operand is a window into a larger canary-filled buffer.
		window := func(n int) (whole, part []float64) {
			whole = make([]float64, n+16)
			for i := range whole {
				whole[i] = rng.NormFloat64()
			}
			return whole, whole[8 : 8+n : 8+n]
		}
		accWhole, acc := window(accLen)
		_, mt := window(mtLen)
		_, v := window(vLen)
		before := append([]float64(nil), accWhole...)
		legal := n >= 0 && stride >= 0 && stride <= accLen && n <= vLen && n*stride <= mtLen
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			VecMatT(acc, mt, v, n, stride)
			return false
		}()
		if panicked == legal {
			t.Fatalf("n=%d stride=%d len(acc,mt,v)=%d,%d,%d: panicked=%v, legal=%v", n, stride, accLen, mtLen, vLen, panicked, legal)
		}
		want := append([]float64(nil), before...)
		if legal {
			vecMatTRef(want[8:], mt, v, n, stride)
		}
		for i := range want {
			if !bitsEqual(accWhole[i], want[i]) {
				t.Fatalf("n=%d stride=%d: element %d of acc's buffer is %v, want %v", n, stride, i-8, accWhole[i], want[i])
			}
		}
	})
}
