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

// The kernels a partials4Case checks, each against its reference.
const (
	kernelPP4  = "PartialsPartials4" // against its unrolled Go body
	kernelSP4  = "StatesPartials4"   // against its unrolled Go body
	kernelSS4  = "StatesStates4"     // against generic StatesStates
	kernelSite = "SiteLikelihoods"   // against the loop over states
)

var allPartials4Kernels = []string{kernelPP4, kernelSP4, kernelSS4, kernelSite}

// partials4Case is one call of a 4-state kernel and of its reference on the
// same operands; p1 doubles as SiteLikelihoods' root, weights and freqs are
// its category weights and state frequencies. dest and out buffers are
// canary-filled and carry eight more canaries past their length.
type partials4Case[T Real] struct {
	d              Dims
	p1, m1, p2, m2 []T
	s1, s2         []int32
	weights, freqs []float64
	lo, hi         int
}

func (k *partials4Case[T]) check(t *testing.T, name string, kernels ...string) {
	t.Helper()
	for _, kernel := range kernels {
		if kernel == kernelSite {
			k.checkSite(t, name)
			continue
		}
		n := k.d.PartialsLen()
		got, want := canaries[T](n+8), canaries[T](n+8)
		switch kernel {
		case kernelPP4:
			PartialsPartials4(got[:n:n], k.p1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
			partialsPartials4Go(want[:n:n], k.p1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
		case kernelSP4:
			StatesPartials4(got[:n:n], k.s1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
			statesPartials4Go(want[:n:n], k.s1, k.m1, k.p2, k.m2, k.d, k.lo, k.hi)
		case kernelSS4:
			StatesStates4(got[:n:n], k.s1, k.m1, k.s2, k.m2, k.d, k.lo, k.hi)
			StatesStates(want[:n:n], k.s1, k.m1, k.s2, k.m2, k.d, k.lo, k.hi)
		default:
			t.Fatalf("unknown kernel %q", kernel)
		}
		for i := range got {
			p := i / 4 % max(k.d.PatternCount, 1)
			inside := i < n && p >= k.lo && p < k.hi
			if !inside && !bitsEqual(got[i], partials4Canary) {
				t.Fatalf("%s %s: entry %d outside [%d, %d) overwritten with %v", name, kernel, i, k.lo, k.hi, got[i])
			}
			if !sameResult(got[i], want[i]) {
				t.Fatalf("%s %s: entry %d (pattern %d, state %d) is %v (%#x), reference %v (%#x)", name, kernel, i, p, i%4,
					got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
			}
		}
	}
}

// checkSite holds SiteLikelihoods on the case's root (p1) to the loop over
// states.
func (k *partials4Case[T]) checkSite(t *testing.T, name string) {
	t.Helper()
	n := k.d.PatternCount
	got, want := canaries[float64](n+8), canaries[float64](n+8)
	SiteLikelihoods(got[:n:n], k.p1, k.weights, k.freqs, k.d, k.lo, k.hi)
	siteLikelihoodsGeneric(want[:n:n], k.p1, k.weights, k.freqs, k.d, k.lo, k.hi)
	for p := range got {
		if inside := p < n && p >= k.lo && p < k.hi; !inside && !bitsEqual(got[p], partials4Canary) {
			t.Fatalf("%s %s: pattern %d outside [%d, %d) overwritten with %v", name, kernelSite, p, k.lo, k.hi, got[p])
		}
		if !sameResult(got[p], want[p]) {
			t.Fatalf("%s %s: pattern %d is %v (%#x), loop %v (%#x)", name, kernelSite, p,
				got[p], math.Float64bits(got[p]), want[p], math.Float64bits(want[p]))
		}
	}
}

func canaries[T Real](n int) []T {
	b := make([]T, n)
	for i := range b {
		b[i] = partials4Canary
	}
	return b
}

func testPartials4Exact[T Real](t *testing.T, specials []T, kernels ...string) {
	rng := rand.New(rand.NewSource(28))
	gaps := []int32{4, math.MaxInt32}
	tipStates := func(n int) []int32 {
		out := make([]int32, n)
		for p := range out {
			if out[p] = int32(rng.Intn(6)); out[p] >= 4 {
				out[p] = gaps[out[p]-4]
			}
		}
		return out
	}
	negZero := T(math.Copysign(0, -1))
	f64Specials := partials4Specials[float64](math.SmallestNonzeroFloat64, 1e150)
	for _, patterns := range []int{0, 1, 2, 3, 7, 129} {
		for _, cats := range []int{1, 4} {
			d := Dims{StateCount: 4, PatternCount: patterns, CategoryCount: cats}
			k := &partials4Case[T]{d: d,
				p1: randomOperand(rng, d.PartialsLen(), specials), p2: randomOperand(rng, d.PartialsLen(), specials),
				m1: randomOperand(rng, d.MatrixLen(), specials), m2: randomOperand(rng, d.MatrixLen(), specials),
				s1: tipStates(patterns), s2: tipStates(patterns),
				weights: randomOperand(rng, cats, f64Specials), freqs: randomOperand(rng, 4, f64Specials)}
			// A root pattern whose first product is −0 in every category,
			// and one whose every product is.
			k.freqs[0] = 0.25
			for c := 0; c < cats; c++ {
				for p := 0; p < min(patterns, 2); p++ {
					row := k.p1[(c*patterns+p)*4:][:4]
					row[0] = negZero
					if p == 1 {
						row[1], row[2], row[3] = negZero, negZero, negZero
					}
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
				k.check(t, fmt.Sprintf("P=%d C=%d [%d,%d)", patterns, cats, k.lo, k.hi), kernels...)
			}
		}
	}
}

// testPartials4ExactBoth runs testPartials4Exact in both precisions.
func testPartials4ExactBoth(t *testing.T, kernels ...string) {
	t.Run("float64", func(t *testing.T) {
		testPartials4Exact(t, partials4Specials[float64](math.SmallestNonzeroFloat64, 1e150), kernels...)
	})
	t.Run("float32", func(t *testing.T) {
		testPartials4Exact(t, partials4Specials[float32](math.SmallestNonzeroFloat32, 1e17), kernels...)
	})
}

// TestPartials4Exact holds PartialsPartials4 and StatesPartials4 — assembly
// where the CPU has it, the Go body otherwise and under -tags purego — to
// their unrolled Go bodies, over odd and even spans, signed zeros,
// subnormals, infinities, NaNs and both gap codes, and checks that nothing
// outside [lo, hi) is written.
func TestPartials4Exact(t *testing.T) {
	t.Logf("4-state kernels accelerated: %v", vecMatAccelerated)
	testPartials4ExactBoth(t, kernelPP4, kernelSP4)
}

// TestStatesStates4Exact holds the product table to generic StatesStates on
// the same operands, gap codes in either child and spans as
// TestPartials4Exact.
func TestStatesStates4Exact(t *testing.T) {
	testPartials4ExactBoth(t, kernelSS4)
}

// TestSiteLikelihoods4Exact holds SiteLikelihoods' 4-state path to the loop
// over states, bit for bit, on float32 and float64 roots — special values in
// the root, the weights and the frequencies, and patterns whose first product
// (or every product) is −0.
func TestSiteLikelihoods4Exact(t *testing.T) {
	testPartials4ExactBoth(t, kernelSite)
}

// TestStatesPartials4ClampsNegativeStates holds every family's compact-state
// kernels to one gap rule: a state outside [0, S) is a gap. The engine
// refuses negative tip states, but a kernel handed one must neither read
// outside the matrix nor answer differently from the others: each must
// compute exactly what it computes for the gap code S.
func TestStatesPartials4ClampsNegativeStates(t *testing.T) {
	for _, s := range []int{4, 5, 20, 61} {
		sets := map[string]Set[float64]{
			"generic": Generic[float64](),
			"fma":     FMA[float64](),
			"bound":   ForStateCount[float64](s),
			"wide":    {StatesPartials: StatesPartialsWide[float64], StatesStates: StatesStates[float64]},
		}
		if s == 4 {
			sets["go body"] = Set[float64]{StatesPartials: statesPartials4Go[float64], StatesStates: StatesStates4[float64]}
		}
		gap := int32(s)
		neg1 := []int32{-1, math.MinInt32, -5, 1, gap, -gap}
		gap1 := []int32{gap, gap, gap, 1, gap, gap}
		neg2 := []int32{0, -gap, -1, math.MinInt32, 2, -7}
		gap2 := []int32{0, gap, gap, gap, 2, gap}
		pr := newProblem[float64](rand.New(rand.NewSource(int64(s))), s, len(neg1), 2)
		for name, set := range sets {
			what := fmt.Sprintf("S=%d %s", s, name)
			got := make([]float64, pr.d.PartialsLen())
			want := make([]float64, pr.d.PartialsLen())
			set.StatesPartials(got, neg1, pr.m1, pr.p2, pr.m2, pr.d, 0, len(neg1))
			set.StatesPartials(want, gap1, pr.m1, pr.p2, pr.m2, pr.d, 0, len(neg1))
			requireSameBits(t, what+" StatesPartials", got, want)
			set.StatesStates(got, neg1, pr.m1, neg2, pr.m2, pr.d, 0, len(neg1))
			set.StatesStates(want, gap1, pr.m1, gap2, pr.m2, pr.d, 0, len(neg1))
			requireSameBits(t, what+" StatesStates", got, want)
		}
	}
}

// FuzzPartials4 builds the 4-state kernels' operands from arbitrary bytes —
// entries in either precision, two tip-state slices including both gap codes
// and negative states, any span of up to 40 patterns in up to four
// categories — and holds the assembly to the Go body, StatesStates4 to
// generic StatesStates and SiteLikelihoods to the loop over states, canaries
// included.
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
	widen := func(v []T) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = float64(x)
		}
		return out
	}
	k := &partials4Case[T]{d: d, lo: lo, hi: hi,
		p1: entries(d.PartialsLen()), m1: entries(d.MatrixLen()), p2: entries(d.PartialsLen()), m2: entries(d.MatrixLen()),
		weights: widen(entries(d.CategoryCount)), freqs: widen(entries(4)),
		s1: make([]int32, d.PatternCount), s2: make([]int32, d.PatternCount)}
	states := []int32{0, 1, 2, 3, 4, 5, math.MaxInt32, -1, math.MinInt32}
	for p := range k.s1 {
		if len(data) > 0 {
			k.s1[p] = states[int(data[(p*7)%len(data)])%len(states)]
			k.s2[p] = states[int(data[(p*5+3)%len(data)])%len(states)]
		}
	}
	k.check(t, name, allPartials4Kernels...)
}
