package kernels

// The wide kernel family: PartialsPartials and StatesPartials for state
// counts in (4, MaxWideStates], one VecMatT call per child per pattern.
//
// VecMatT wants the matrix transposed and its rows padded to the lane
// multiple, and the stored layout is [parent][child] unpadded, so each call
// transposes one child's matrix of one category into scratch on its own
// stack and streams the patterns of [lo, hi) past it. Why that scratch is per
// call and not a second copy of every matrix buffer is in the package comment.

// transposeInto writes the s×s row-major matrix m into t transposed with row
// pitch stride: t[j·stride+i] = m[i·s+j]. The padding columns i ≥ s are left
// as they are — zero, in scratch nothing else has written.
//
//beagle:noalloc
func transposeInto[T Real](t, m []T, s, stride int) {
	for i := 0; i < s; i++ {
		row := m[i*s : (i+1)*s]
		for j, x := range row {
			t[j*stride+i] = x
		}
	}
}

// PartialsPartialsWide is PartialsPartials on the vectorised primitive, bit
// for bit the same result. State counts outside the wide range run the
// generic kernel.
//
//beagle:noalloc
func PartialsPartialsWide[T Real](dest, p1, m1, p2, m2 []T, d Dims, lo, hi int) {
	s := d.StateCount
	if !isWide(s) {
		PartialsPartials(dest, p1, m1, p2, m2, d, lo, hi)
		return
	}
	var (
		tbuf [MaxWideStates * MaxWideStates]T
		abuf [MaxWideStates]T
	)
	stride := padStride[T](s)
	t, a := tbuf[:s*stride], abuf[:stride]
	for c := 0; c < d.CategoryCount; c++ {
		mOff := c * s * s
		// One child at a time, so a single transposed matrix stays in the
		// first-level cache while the patterns stream past it: the first
		// pass leaves Σ_j m1[i][j]·p1[j] in dest, the second multiplies
		// Σ_j m2[i][j]·p2[j] into it.
		transposeInto(t, m1[mOff:mOff+s*s], s, stride)
		for p := lo; p < hi; p++ {
			pOff := (c*d.PatternCount + p) * s
			VecMatT(a, t, p1[pOff:pOff+s], s, stride)
			copy(dest[pOff:pOff+s], a)
		}
		transposeInto(t, m2[mOff:mOff+s*s], s, stride)
		for p := lo; p < hi; p++ {
			pOff := (c*d.PatternCount + p) * s
			VecMatT(a, t, p2[pOff:pOff+s], s, stride)
			out := dest[pOff : pOff+s]
			for i := range out {
				out[i] *= a[i]
			}
		}
	}
}

// StatesPartialsWide is StatesPartials on the vectorised primitive, bit for
// bit the same result. Only the partials child's matrix is transposed; the
// compact-state child reads one column of m1 per pattern as the generic
// kernel does.
//
//beagle:noalloc
func StatesPartialsWide[T Real](dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int) {
	s := d.StateCount
	if !isWide(s) {
		StatesPartials(dest, s1, m1, p2, m2, d, lo, hi)
		return
	}
	var (
		tbuf [MaxWideStates * MaxWideStates]T
		abuf [MaxWideStates]T
	)
	stride := padStride[T](s)
	t2, a2 := tbuf[:s*stride], abuf[:stride]
	for c := 0; c < d.CategoryCount; c++ {
		mOff := c * s * s
		transposeInto(t2, m2[mOff:mOff+s*s], s, stride)
		for p := lo; p < hi; p++ {
			pOff := (c*d.PatternCount + p) * s
			VecMatT(a2, t2, p2[pOff:pOff+s], s, stride)
			out := dest[pOff : pOff+s]
			if state1 := int(s1[p]); uint(state1) < uint(s) {
				col := m1[mOff+state1:]
				for i := range out {
					out[i] = col[i*s] * a2[i]
				}
			} else {
				copy(out, a2) // a gap contributes the factor 1
			}
		}
	}
}
