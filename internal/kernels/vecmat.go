package kernels

// MaxWideStates bounds the state counts the vectorised wide path serves. It
// sizes the call-owned stack scratch of the wide kernels and of
// UpdateTransitionMatrix (one 64×64 matrix at most), and covers every model
// in use: 20 amino acids, 61 sense codons, 64 codons.
const MaxWideStates = 64

// minWideStates is where the wide path starts: above the 4-state
// specialisation.
const minWideStates = 5

// isWide reports whether stateCount takes the wide path.
//
//beagle:noalloc
func isWide(stateCount int) bool {
	return stateCount >= minWideStates && stateCount <= MaxWideStates
}

// lanes returns how many T fit one 256-bit vector register: the multiple
// VecMatT's stride must be for the assembly to run it.
//
//beagle:noalloc
func lanes[T Real]() int {
	var z T
	if _, ok := any(z).(float32); ok { //beagle:allow noalloc a zero float boxes to the runtime's static zero value
		return 8
	}
	return 4
}

// padStride rounds a row length up to the lane multiple for T.
//
//beagle:noalloc
func padStride[T Real](n int) int {
	l := lanes[T]()
	return (n + l - 1) / l * l
}

// VecMatT is the transposed matrix–vector product every wide-state kernel is
// built on:
//
//	acc[i] = Σ_j mt[j·stride+i]·v[j]   for i < stride, j = 0 … n-1 ascending
//
// mt holds the matrix transposed (n rows of stride outputs), so the vector
// lanes run across the outputs i and each lane performs exactly the scalar
// kernel's sequence for its output: start at +0, then one multiply and one
// separately rounded add per j, in order. No fused multiply-add is used, so
// the result equals the scalar loop's bit for bit. On amd64 with AVX2 the
// loop is assembly when stride is a multiple of a 256-bit register's lanes
// (4 float64, 8 float32); everywhere else (other architectures, older CPUs,
// -tags purego, odd strides) it is the Go body below, which computes the
// same bits.
//
// Operands shorter than the geometry (len(acc) < stride, len(mt) < n·stride,
// len(v) < n) panic on the slice expressions here, before any assembly runs.
//
//beagle:noalloc
func VecMatT[T Real](acc, mt, v []T, n, stride int) {
	acc, mt, v = acc[:stride], mt[:n*stride], v[:n]
	if vecMatTAsm(acc, mt, v) {
		return
	}
	for i := range acc {
		acc[i] = 0
	}
	for j, vj := range v {
		row := mt[j*stride:][:len(acc)]
		for i := range acc {
			acc[i] += row[i] * vj
		}
	}
}
