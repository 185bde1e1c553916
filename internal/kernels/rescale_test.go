package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestRescaleSubnormalMax rescales patterns whose largest entry is
// subnormal — in single precision, where 1/max overflows float32, and in
// double, where 2^-e can exceed the largest float64 and is applied in two
// steps. Both must land the largest entry in [0.5, 1) and round-trip every
// entry exactly.
func TestRescaleSubnormalMax(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		checkRescaleExact(t, []float32{1e-40, 0, 5e-41, 0}, 4, 1)
		checkRescaleExact(t, []float32{math.SmallestNonzeroFloat32, 0, 0, 0, 0, 0}, 2, 3)
	})
	t.Run("float64", func(t *testing.T) {
		checkRescaleExact(t, []float64{1e-310, 0, 5e-311, 0}, 4, 1)
		checkRescaleExact(t, []float64{math.SmallestNonzeroFloat64, 0, 0, 0, 0, 0}, 2, 3)
		checkRescaleExact(t, []float64{math.MaxFloat64, 1, 0x1p-40, 0}, 4, 1) // 2^-e subnormal
	})
}

func checkRescaleExact[T Real](t *testing.T, vals []T, states, cats int) {
	t.Helper()
	d := Dims{StateCount: states, PatternCount: len(vals) / (states * cats), CategoryCount: cats}
	got := append([]T(nil), vals...)
	scale := make([]float64, d.PatternCount)
	RescalePartials(got, scale, d, 0, d.PatternCount)
	for p := range scale {
		e := int(math.Round(scale[p] / math.Ln2))
		var m float64
		for c := 0; c < cats; c++ {
			for i := 0; i < states; i++ {
				k := (c*d.PatternCount+p)*states + i
				m = math.Max(m, float64(got[k]))
				if back := math.Ldexp(float64(got[k]), e); back != float64(vals[k]) {
					t.Errorf("pattern %d entry %d: %g rescaled to %g, ×2^%d = %g", p, k, vals[k], got[k], e, back)
				}
			}
		}
		if m < 0.5 || m >= 1 {
			t.Errorf("pattern %d: largest rescaled entry %g, want [0.5, 1) (scale %v)", p, m, scale[p])
		}
	}
}

// accumulateByPattern is AccumulateScaleFactors as a per-pattern loop: the
// order of additions the row-wise kernel must reproduce bit for bit.
func accumulateByPattern(cum []float64, factors [][]float64, lo, hi int) {
	for p := lo; p < hi; p++ {
		var sum float64
		for _, f := range factors {
			sum += f[p]
		}
		cum[p] = sum
	}
}

func TestAccumulateScaleFactorsMatchesPatternLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const patterns = 256
	for _, buffers := range []int{0, 1, 2, 127} {
		factors := make([][]float64, buffers)
		for k := range factors {
			factors[k] = make([]float64, patterns)
			for p := range factors[k] {
				switch rng.Intn(4) {
				case 0:
					factors[k][p] = math.Copysign(0, -1)
				case 1:
					factors[k][p] = rng.NormFloat64() * 1e3
				default:
					factors[k][p] = float64(rng.Intn(200)-100) * math.Ln2
				}
			}
		}
		for _, r := range [][2]int{{0, patterns}, {17, 201}, {5, 5}} {
			got := make([]float64, patterns)
			want := make([]float64, patterns)
			for p := range got {
				got[p], want[p] = 7, 7 // outside [lo, hi) must survive
			}
			AccumulateScaleFactors(got, factors, r[0], r[1])
			accumulateByPattern(want, factors, r[0], r[1])
			for p := range want {
				if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
					t.Fatalf("%d buffers, range %v: cum[%d] = %v, per-pattern loop %v", buffers, r, p, got[p], want[p])
				}
			}
		}
	}
}

// FuzzRescalePartials rescales arbitrary bit patterns — signed zeros,
// subnormals, negatives, infinities and NaNs included — in both precisions
// and at state counts {2, 4, 5, 20, 61}, and checks:
//   - the four-state paths — the assembly where it runs, and the Go body —
//     return the generic path's bits;
//   - every scale factor is k·ln2 for an integer k;
//   - a pattern whose largest entry is positive and finite has it in
//     [0.5, 1) afterwards, and every entry whose rescaled value is above the
//     smallest normal round-trips exactly, zeros and infinities are kept bit
//     for bit and NaNs stay NaN;
//   - a pattern with no positive entry, or with +Inf or a NaN whose sign bit
//     is clear, is left bit for bit as it was with a zero scale factor;
//   - patterns outside [lo, hi) and their scale factors are not touched.
//
// Up to 19 patterns, so that one span holds a full four-pattern block of the
// assembly, its tail, and a declined pattern between them.
func FuzzRescalePartials(f *testing.F) {
	b32 := func(vs ...float32) []byte {
		out := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	b64 := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	negNaN := math.Copysign(nan, -1)
	f.Add(b32(1e-40, 0, 5e-41, 0), uint8(1), uint8(1), uint8(0), uint8(0), true)
	f.Add(b64(1e-310, 0, 5e-311, 0, 0.25, 3, 1e-20, 7), uint8(1), uint8(2), uint8(0), uint8(0), false)
	f.Add(b64(math.SmallestNonzeroFloat64, negZero, -1, 0), uint8(1), uint8(1), uint8(0), uint8(0), false)
	f.Add(b64(math.MaxFloat64, 1, 0x1p-1070, -3), uint8(1), uint8(1), uint8(0), uint8(0), false)
	f.Add(b64(inf, 1, 2, 3, -inf, 1, 2, nan), uint8(1), uint8(2), uint8(0), uint8(0), false)
	f.Add(b64(negNaN, 0.5, 1e-300, negZero), uint8(1), uint8(1), uint8(0), uint8(0), false)
	f.Add(b32(float32(negZero), -1, -2, 0), uint8(1), uint8(1), uint8(0), uint8(0), true)
	f.Add(b64(3, 1e-5, 1e-200, 2, 9, 4), uint8(0), uint8(3), uint8(1), uint8(0), false)
	f.Add(b32(1e30, 1e-30, 7, 8, 9), uint8(2), uint8(1), uint8(0), uint8(0), true)
	f.Add(make([]byte, 20*8*3), uint8(3), uint8(3), uint8(1), uint8(0), false)
	f.Add(b32(1, 2, 3), uint8(4), uint8(2), uint8(0), uint8(0), true)
	f.Add(b32(0x1.fffffep-126, 1.88), uint8(1), uint8(0), uint8(0), uint8(0), true) // halved, rounds up onto the smallest normal
	// 19 four-state patterns in two categories, spread over the exponent
	// range, with pattern 9 all zeros and pattern 14 holding +Inf: the span
	// [1, 18) is two blocks, a declined pattern, a block, a declined pattern
	// in the next block, and a tail, and pattern 18 lies beyond hi.
	spread := make([]float64, 19*4*2)
	for k := range spread {
		spread[k] = math.Ldexp(1+float64(k%7)/8, -(k*37)%300)
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			spread[(c*19+9)*4+i] = 0
		}
	}
	spread[(19+14)*4+2] = inf
	spread32 := make([]float32, len(spread))
	for k, v := range spread {
		spread32[k] = float32(math.Ldexp(v, 120))
	}
	f.Add(b64(spread...), uint8(1), uint8(1), uint8(1), uint8(1), false)
	f.Add(b32(spread32...), uint8(1), uint8(1), uint8(1), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, stateSel, cats, loSel, hiSel uint8, single bool) {
		states := []int{2, 4, 5, 20, 61}[int(stateSel)%5]
		c := 1 + int(cats)%4
		if single {
			fuzzRescale(t, decodeEntries(data, 4, states, c, func(b []byte) float32 {
				return math.Float32frombits(binary.LittleEndian.Uint32(b))
			}), states, c, int(loSel), int(hiSel))
		} else {
			fuzzRescale(t, decodeEntries(data, 8, states, c, func(b []byte) float64 {
				return math.Float64frombits(binary.LittleEndian.Uint64(b))
			}), states, c, int(loSel), int(hiSel))
		}
	})
}

// decodeEntries turns data into whole patterns of partials, width bytes per
// entry, cycling through data, all zeros when data is shorter than one
// entry; at most 19 patterns.
func decodeEntries[T Real](data []byte, width, states, cats int, decode func([]byte) T) []T {
	per := states * cats
	patterns := min(19, 1+len(data)/(width*per))
	out := make([]T, patterns*per)
	if len(data) < width {
		return out
	}
	for i := range out {
		off := (i * width) % (len(data) - width + 1)
		out[i] = decode(data[off : off+width])
	}
	return out
}

// requireSameRescale fails unless a rescale's partials and scale factors
// are the generic path's bits.
func requireSameRescale[T Real](t *testing.T, name string, got []T, scale []float64, generic []T, genScale []float64) {
	t.Helper()
	for i := range got {
		if !bitsEqual(got[i], generic[i]) {
			t.Fatalf("%s: entry %d is %v, generic path %v", name, i, got[i], generic[i])
		}
	}
	for p := range scale {
		if math.Float64bits(scale[p]) != math.Float64bits(genScale[p]) {
			t.Fatalf("%s: scale[%d] is %v, generic path %v", name, p, scale[p], genScale[p])
		}
	}
}

// fuzzRescale rescales vals over [lo, hi) — lo = loSel mod patterns, and hi
// hiSel short of the last pattern, modulo what lies above lo, so hiSel 0
// runs to the end — and checks the properties FuzzRescalePartials lists.
func fuzzRescale[T Real](t *testing.T, vals []T, states, cats, loSel, hiSel int) {
	d := Dims{StateCount: states, PatternCount: len(vals) / (states * cats), CategoryCount: cats}
	lo := loSel % d.PatternCount
	hi := d.PatternCount - hiSel%(d.PatternCount-lo+1)
	got := append([]T(nil), vals...)
	scale := make([]float64, d.PatternCount)
	for p := range scale {
		scale[p] = -7 // sentinel outside [lo, hi)
	}
	RescalePartials(got, scale, d, lo, hi)

	generic := append([]T(nil), vals...)
	genScale := append([]float64(nil), scale...)
	for p := lo; p < hi; p++ {
		genScale[p] = -7
	}
	rescalePartialsGeneric(generic, genScale, d, lo, hi)
	requireSameRescale(t, "RescalePartials", got, scale, generic, genScale)
	if states == 4 { // the Go body too, which RescalePartials skips where the assembly runs
		goBody := append([]T(nil), vals...)
		goScale := append([]float64(nil), genScale...)
		for p := lo; p < hi; p++ {
			goScale[p] = -7
		}
		rescalePartials4(goBody, goScale, d, lo, hi)
		requireSameRescale(t, "rescalePartials4", goBody, goScale, generic, genScale)
	}

	minNormal := math.Float64frombits(1 << 52)
	if _, single := any(vals).([]float32); single {
		minNormal = float64(math.Float32frombits(1 << 23))
	}
	entry := func(p, c, i int) int { return (c*d.PatternCount+p)*states + i }
	for p := 0; p < d.PatternCount; p++ {
		if p < lo || p >= hi {
			for c := 0; c < cats; c++ {
				for i := 0; i < states; i++ {
					if k := entry(p, c, i); !bitsEqual(got[k], vals[k]) {
						t.Fatalf("pattern %d outside [%d, %d) changed at entry %d", p, lo, hi, k)
					}
				}
			}
			if scale[p] != -7 {
				t.Fatalf("scale[%d] outside [%d, %d) written: %v", p, lo, hi, scale[p])
			}
			continue
		}
		k := math.Round(scale[p] / math.Ln2)
		if k*math.Ln2 != scale[p] {
			t.Fatalf("scale[%d] = %v is not an integer multiple of ln2", p, scale[p])
		}
		// The reference semantics, by value: the largest positive entry, and
		// whether +Inf or a NaN with a clear sign bit is present.
		var maxPos float64
		nonFinite := false
		for c := 0; c < cats; c++ {
			for i := 0; i < states; i++ {
				x := float64(vals[entry(p, c, i)])
				switch {
				case math.IsNaN(x):
					nonFinite = nonFinite || !math.Signbit(x)
				case math.IsInf(x, 1):
					nonFinite = true
				case x > maxPos:
					maxPos = x
				}
			}
		}
		if nonFinite || maxPos == 0 {
			if scale[p] != 0 {
				t.Fatalf("pattern %d (non-finite %v, max %v) has scale %v, want 0", p, nonFinite, maxPos, scale[p])
			}
			for c := 0; c < cats; c++ {
				for i := 0; i < states; i++ {
					if k := entry(p, c, i); !bitsEqual(got[k], vals[k]) {
						t.Fatalf("pattern %d left unscaled changed entry %d: %v -> %v", p, k, vals[k], got[k])
					}
				}
			}
			continue
		}
		e := int(k)
		if _, want := math.Frexp(maxPos); e != want {
			t.Fatalf("pattern %d: scale exponent %d, largest entry %v has exponent %d", p, e, maxPos, want)
		}
		var newMax float64
		for c := 0; c < cats; c++ {
			for i := 0; i < states; i++ {
				k := entry(p, c, i)
				x, y := float64(vals[k]), float64(got[k])
				if y > newMax {
					newMax = y
				}
				// Results below the normal range round (one that rounds up
				// lands on the smallest normal itself), and a negative entry
				// larger in magnitude than the largest positive one may
				// overflow to -Inf; every result above the smallest normal
				// is held to the round trip.
				switch {
				case math.IsNaN(x) || math.IsNaN(y):
					if !math.IsNaN(x) || !math.IsNaN(y) {
						t.Fatalf("pattern %d entry %d: %v rescaled to %v", p, k, x, y)
					}
				case x == 0 || math.IsInf(x, 0):
					if !bitsEqual(got[k], vals[k]) {
						t.Fatalf("pattern %d entry %d: %v rescaled to %v", p, k, x, y)
					}
				case !math.IsInf(y, 0) && math.Abs(y) > minNormal:
					if back := math.Ldexp(y, e); back != x {
						t.Fatalf("pattern %d entry %d: %v rescaled to %v, ×2^%d = %v", p, k, x, y, e, back)
					}
				}
			}
		}
		if newMax < 0.5 || newMax >= 1 {
			t.Fatalf("pattern %d: largest entry %v rescaled to %v, want [0.5, 1)", p, maxPos, newMax)
		}
	}
}
