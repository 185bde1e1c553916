package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameResult is the 4-state kernels' equality: the same bits, or both NaN.
// Which payload survives when two NaN operands meet depends on the operand
// order of the machine instruction, which the Go compiler chooses freely for
// commutative operations; every other result must match bit for bit.
func sameResult[T Real](a, b T) bool {
	return bitsEqual(a, b) || (a != a && b != b)
}

// partials4Specials adds the non-finite values to vecMatSpecials: the
// 4-state kernels must agree on them too.
func partials4Specials[T Real](tiny, big float64) []T {
	return append(vecMatSpecials[T](tiny, big), T(math.Inf(1)), T(math.Inf(-1)), T(math.NaN()))
}

const partials4Canary = -3.25

// partials4Case is one call of both 4-state kernels, assembly and Go body,
// on the same operands; dest buffers are canary-filled and carry eight more
// canaries past their length.
type partials4Case[T Real] struct {
	d              Dims
	p1, m1, p2, m2 []T
	s1             []int32
	lo, hi         int
}

func (k *partials4Case[T]) check(t *testing.T, name string) {
	t.Helper()
	n := k.d.PartialsLen()
	buffer := func() []T {
		b := make([]T, n+8)
		for i := range b {
			b[i] = partials4Canary
		}
		return b
	}
	for _, kernel := range []string{"PartialsPartials4", "StatesPartials4"} {
		got, want := buffer(), buffer()
		if kernel == "PartialsPartials4" {
			PartialsPartials4(got[:n:n], k.p1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
			partialsPartials4Go(want[:n:n], k.p1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
		} else {
			StatesPartials4(got[:n:n], k.s1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
			statesPartials4Go(want[:n:n], k.s1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
		}
		for i := range got {
			p := i / 4 % max(k.d.PatternCount, 1)
			inside := i < n && p >= k.lo && p < k.hi
			if !inside && !bitsEqual(got[i], partials4Canary) {
				t.Fatalf("%s %s: entry %d outside [%d, %d) overwritten with %v", name, kernel, i, k.lo, k.hi, got[i])
			}
			if !sameResult(got[i], want[i]) {
				t.Fatalf("%s %s: entry %d (pattern %d, state %d) is %v (%#x), Go body %v (%#x)", name, kernel, i, p, i%4,
					got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
			}
		}
	}
}

func testPartials4Exact[T Real](t *testing.T, specials []T) {
	rng := rand.New(rand.NewSource(28))
	gaps := []int32{4, math.MaxInt32}
	for _, patterns := range []int{0, 1, 2, 3, 7, 129} {
		for _, cats := range []int{1, 4} {
			d := Dims{StateCount: 4, PatternCount: patterns, CategoryCount: cats}
			k := &partials4Case[T]{d: d,
				p1: randomOperand(rng, d.PartialsLen(), specials), p2: randomOperand(rng, d.PartialsLen(), specials),
				m1: randomOperand(rng, d.MatrixLen(), specials), m2: randomOperand(rng, d.MatrixLen(), specials),
				s1: make([]int32, patterns)}
			for p := range k.s1 {
				if k.s1[p] = int32(rng.Intn(6)); k.s1[p] >= 4 {
					k.s1[p] = gaps[k.s1[p]-4]
				}
			}
			// Whole, empty, odd and even starts and lengths, one pattern.
			spans := [][2]int{{0, patterns}, {0, 0}}
			if patterns > 1 {
				spans = append(spans, [2]int{1, patterns}, [2]int{1, 2}, [2]int{0, patterns - 1}, [2]int{patterns / 2, patterns})
			}
			if patterns > 4 {
				spans = append(spans, [2]int{3, patterns - 1}, [2]int{1, 4})
			}
			for _, span := range spans {
				k.lo, k.hi = span[0], span[1]
				k.check(t, fmt.Sprintf("P=%d C=%d [%d,%d)", patterns, cats, k.lo, k.hi))
			}
		}
	}
}

// TestPartials4Exact holds PartialsPartials4 and StatesPartials4 — assembly
// where the CPU has it, the Go body otherwise and under -tags purego — to
// their unrolled Go bodies, over odd and even spans, signed zeros,
// subnormals, infinities, NaNs and both gap codes, and checks that nothing
// outside [lo, hi) is written.
func TestPartials4Exact(t *testing.T) {
	t.Logf("4-state kernels accelerated: %v", vecMatAccelerated)
	t.Run("float64", func(t *testing.T) {
		testPartials4Exact(t, partials4Specials[float64](math.SmallestNonzeroFloat64, 1e150))
	})
	t.Run("float32", func(t *testing.T) {
		testPartials4Exact(t, partials4Specials[float32](math.SmallestNonzeroFloat32, 1e17))
	})
}

// TestStatesPartials4ClampsNegativeStates covers what the Go body cannot: the
// engine rejects negative tip states, but the assembly's unsigned clamp must
// still keep them inside its column table, as gaps.
func TestStatesPartials4ClampsNegativeStates(t *testing.T) {
	if !vecMatAccelerated {
		t.Skip("the Go body indexes with the state and panics on a negative one")
	}
	pr := newProblem[float64](rand.New(rand.NewSource(3)), 4, 4, 2)
	gaps := []int32{4, 4, 4, 4}
	got := make([]float64, pr.d.PartialsLen())
	want := make([]float64, pr.d.PartialsLen())
	StatesPartials4(got, []int32{-1, math.MinInt32, -5, 4}, pr.m1, pr.p2, pr.m2, pr.d, 0, 4)
	StatesPartials4(want, gaps, pr.m1, pr.p2, pr.m2, pr.d, 0, 4)
	requireSameBits(t, "negative states", got, want)
}

// FuzzPartials4 builds both kernels' operands from arbitrary bytes — entries
// in either precision, tip states including both gap codes, any span of up to
// 40 patterns in up to four categories — and holds the assembly to the Go
// body, canaries included.
func FuzzPartials4(f *testing.F) {
	b64 := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	f.Add(b64(0.25, 0.5, 1, 2, 3, 0.125), uint8(9), uint8(1), uint8(1), uint8(7), false)
	f.Add(b64(0.25, 0.5, 1, 2, 3, 0.125), uint8(9), uint8(1), uint8(1), uint8(7), true)
	f.Add(b64(negZero, 1e-310, inf, -inf, nan, 1), uint8(5), uint8(2), uint8(0), uint8(5), false)
	f.Add(b64(1e-40, -1e-45, 3, -0.5, 1e38, 2), uint8(4), uint8(3), uint8(1), uint8(3), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 4, 5, 6}, uint8(40), uint8(0), uint8(3), uint8(200), true)
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, patterns, cats, loSel, lenSel uint8, single bool) {
		p := int(patterns) % 41
		d := Dims{StateCount: 4, PatternCount: p, CategoryCount: 1 + int(cats)%4}
		lo := int(loSel) % (p + 1)
		hi := lo + int(lenSel)%(p-lo+1)
		name := fmt.Sprintf("P=%d C=%d [%d,%d) single=%v", p, d.CategoryCount, lo, hi, single)
		if single {
			fuzzPartials4(t, name, d, lo, hi, data, 4, func(b []byte) float32 {
				return math.Float32frombits(binary.LittleEndian.Uint32(b))
			})
		} else {
			fuzzPartials4(t, name, d, lo, hi, data, 8, func(b []byte) float64 {
				return math.Float64frombits(binary.LittleEndian.Uint64(b))
			})
		}
	})
}

// fuzzPartials4 decodes the operands from data, cycling through it (all
// zeros when it is shorter than an entry), and checks one partials4Case.
func fuzzPartials4[T Real](t *testing.T, name string, d Dims, lo, hi int, data []byte, width int, decode func([]byte) T) {
	next := 0
	entries := func(n int) []T {
		out := make([]T, n)
		if len(data) < width {
			return out
		}
		for i := range out {
			off := next % (len(data) - width + 1)
			out[i] = decode(data[off : off+width])
			next += width
		}
		return out
	}
	k := &partials4Case[T]{d: d, lo: lo, hi: hi,
		p1: entries(d.PartialsLen()), m1: entries(d.MatrixLen()), p2: entries(d.PartialsLen()), m2: entries(d.MatrixLen()),
		s1: make([]int32, d.PatternCount)}
	states := []int32{0, 1, 2, 3, 4, 5, math.MaxInt32}
	for p := range k.s1 {
		if len(data) > 0 {
			k.s1[p] = states[int(data[(p*7)%len(data)])%len(states)]
		}
	}
	k.check(t, name)
}
