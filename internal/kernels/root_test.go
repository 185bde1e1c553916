package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// logInputs are the inputs the log is most likely to get wrong: signed zeros
// and infinities, NaNs of either sign with several payloads, subnormals
// (which archLog does not normalise), the ends of the double range, and
// values on and around √2/2 in every binade.
func logInputs() []float64 {
	bits := []uint64{
		0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000,
		0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
		0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7FF4000000000abc,
		1, 2, 0x000FFFFFFFFFFFFF, 0x0008000000000000, 0x8000000000000001, 0x800FFFFFFFFFFFFF,
		0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x0010000000000000, 0x3FF0000000000000,
		0xBFF0000000000000, 0x3FEFFFFFFFFFFFFF, 0x3FF0000000000001, 0x4000000000000000,
	}
	hs := math.Float64bits(logHSqrt2) & (1<<52 - 1)
	for e := uint64(0); e < 2047; e++ {
		for d := -2; d <= 2; d++ {
			bits = append(bits, e<<52|(hs+uint64(d)))
		}
	}
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1<<16; i++ {
		out = append(out, math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()>>1), rng.Float64())
	}
	return out
}

// checkLogSites holds LogSites (the assembly where the CPU has it) and its
// Go body to each other and, on amd64, to math.Log, bit for bit and NaN
// payloads included, over [lo, hi) of site with and without scale, and
// checks that nothing outside [lo, hi) is written. With a scale the sum may
// meet two NaNs, whose surviving payload the compiler's operand order picks,
// so there a NaN matches any NaN.
func checkLogSites(t *testing.T, site, scale []float64, lo, hi int) {
	t.Helper()
	for _, sc := range [][]float64{nil, scale} {
		n := len(site)
		got, goBody := canaries[float64](n+4), canaries[float64](n+4)
		LogSites(got[:n:n], site, sc, lo, hi)
		logSitesGo(goBody[:n:n], site, sc, lo, hi)
		for p := range got {
			if p < lo || p >= hi {
				if !bitsEqual(got[p], partials4Canary) || !bitsEqual(goBody[p], partials4Canary) {
					t.Fatalf("[%d, %d) scaled=%v: pattern %d outside the span written", lo, hi, sc != nil, p)
				}
				continue
			}
			same := bitsEqual[float64]
			if sc != nil && math.IsNaN(sc[p]) {
				same = sameResult[float64]
			}
			want := goBody[p]
			if runtime.GOARCH == "amd64" {
				want = math.Log(site[p])
				if sc != nil {
					want += sc[p]
				}
			}
			if !same(got[p], want) || !same(goBody[p], want) {
				t.Fatalf("[%d, %d) scaled=%v: log(%#x) is %#x, Go body %#x, want %#x", lo, hi, sc != nil,
					math.Float64bits(site[p]), math.Float64bits(got[p]), math.Float64bits(goBody[p]), math.Float64bits(want))
			}
		}
	}
}

// TestLogSitesMatchesMathLog holds LogSites to amd64's math.Log on the
// inputs it is most likely to get wrong and on random bits, whole and over
// odd spans.
func TestLogSitesMatchesMathLog(t *testing.T) {
	t.Logf("log accelerated: %v", vecMatAccelerated)
	site := logInputs()
	scale := make([]float64, len(site))
	rng := rand.New(rand.NewSource(43))
	for i := range scale {
		scale[i] = float64(rng.Intn(40)) * math.Ln2
	}
	scale[5], scale[6], scale[7] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	n := len(site)
	for _, span := range [][2]int{{0, n}, {1, n}, {3, n - 2}, {0, 0}, {2, 3}, {5, 12}, {7, 14}} {
		checkLogSites(t, site, scale, span[0], span[1])
	}
}

// FuzzLogSites decodes raw uint64 bit patterns into site likelihoods and
// scale factors and holds LogSites, its Go body and (on amd64) math.Log to
// one another bit for bit over any span.
func FuzzLogSites(f *testing.F) {
	u64 := func(vs ...uint64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	f.Add(u64(0x3FE6A09E667F3BCD, 0, 1<<63, 0x7FF0000000000000, 0xFFF8000000000000, 1, 0x7FF8000000000001), uint8(0), uint8(7))
	f.Add(u64(0x3FF0000000000000, 0x4000000000000000, 0xBFF0000000000000, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF), uint8(1), uint8(9))
	f.Add([]byte{1, 2, 3}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, loSel, lenSel uint8) {
		n := len(data) / 8
		site, scale := make([]float64, n), make([]float64, n)
		for i := range site {
			site[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			scale[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*((i+1)%n):]))
		}
		lo := int(loSel) % (n + 1)
		hi := lo + int(lenSel)%(n-lo+1)
		checkLogSites(t, site, scale, lo, hi)
	})
}
