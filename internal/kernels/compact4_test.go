package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compactNode is one subtree of a compact4 test tree in both
// representations: full-width partials computed by the bound 4-state kernels
// (nil for a tip) and the class table and ids the compact kernels build.
type compactNode[T Real] struct {
	full   []T
	states []int32 // tips only
	tab    []T     // internal nodes only
	ids    []int32
	rows   int
}

// side returns n's side table through m: TipSide4 for a tip, SideRows4
// otherwise.
func (n *compactNode[T]) side(m []T, cats int) []T {
	out := make([]T, n.rows*cats*4)
	if n.states != nil {
		TipSide4(out, m, cats)
	} else {
		SideRows4(out, n.tab, m, n.rows, cats)
	}
	return out
}

// compactTree builds a random subtree of k tips with random matrices, and at
// every internal node holds the compact kernels to the full-width ones:
// ExpandClasses4 of the class table, GatherGather4 of the children's side
// tables and, beside a full-width child, GatherPartials4 must each give the
// full-width kernel's bits (NaN as NaN) on the span, the canaries outside it
// untouched.
func compactTree[T Real](t *testing.T, rng *rand.Rand, k int, d Dims, specials []T, lo, hi int) *compactNode[T] {
	t.Helper()
	if k == 1 {
		st := make([]int32, d.PatternCount)
		for p := range st {
			st[p] = int32(rng.Intn(5))
		}
		return &compactNode[T]{states: st, ids: st, rows: 5}
	}
	k1 := 1 + rng.Intn(k-1)
	a := compactTree(t, rng, k1, d, specials, lo, hi)
	b := compactTree(t, rng, k-k1, d, specials, lo, hi)
	m1 := randomOperand(rng, d.MatrixLen(), specials)
	m2 := randomOperand(rng, d.MatrixLen(), specials)
	n := d.PartialsLen()
	full := make([]T, n)
	switch {
	case a.states != nil && b.states != nil:
		StatesStates4(full, a.states, m1, b.states, m2, d, 0, d.PatternCount)
	case a.states != nil:
		StatesPartials4(full, a.states, m1, b.full, m2, d, 0, d.PatternCount)
	case b.states != nil:
		StatesPartials4(full, b.states, m2, a.full, m1, d, 0, d.PatternCount)
	default:
		PartialsPartials4(full, a.full, m1, b.full, m2, d, 0, d.PatternCount)
	}
	s1, s2 := a.side(m1, d.CategoryCount), b.side(m2, d.CategoryCount)
	node := &compactNode[T]{full: full, rows: a.rows * b.rows, ids: make([]int32, d.PatternCount)}
	node.tab = make([]T, node.rows*d.CategoryCount*4)
	ClassTable4(node.tab, s1, a.rows, s2, b.rows, d.CategoryCount)
	ClassIDs(node.ids, a.ids, int32(b.rows), b.ids)
	name := fmt.Sprintf("k=%d (%d+%d) P=%d C=%d", k, k1, k-k1, d.PatternCount, d.CategoryCount)

	expanded := make([]T, n)
	ExpandClasses4(expanded, node.tab, node.ids, node.rows, d)
	requireCompactRows(t, name+" ExpandClasses4", expanded, full, d, 0, d.PatternCount)

	got := canaries[T](n)
	GatherGather4(got, a.ids, s1, a.rows, b.ids, s2, b.rows, d, lo, hi)
	requireCompactRows(t, name+" GatherGather4", got, full, d, lo, hi)
	body := canaries[T](n)
	for c := 0; c < d.CategoryCount; c++ {
		o := (c*d.PatternCount + lo) * 4
		gatherGather4Go(body[o:o+4*(hi-lo)], a.ids[lo:hi], s1[c*a.rows*4:], b.ids[lo:hi], s2[c*b.rows*4:])
	}
	requireCompactRows(t, name+" gatherGather4Go", body, full, d, lo, hi)
	if b.full != nil {
		got := canaries[T](n)
		GatherPartials4(got, a.ids, s1, a.rows, b.full, m2, d, lo, hi)
		requireCompactRows(t, name+" GatherPartials4", got, full, d, lo, hi)
		body := canaries[T](n)
		for c := 0; c < d.CategoryCount; c++ {
			gatherPartials4Go(body, a.ids, s1[c*a.rows*4:(c+1)*a.rows*4], b.full, m2, d, c, lo, hi)
		}
		requireCompactRows(t, name+" gatherPartials4Go", body, full, d, lo, hi)
	}
	return node
}

// requireCompactRows fails unless got holds want's results on patterns
// [lo, hi) of every category and the canary elsewhere.
func requireCompactRows[T Real](t *testing.T, name string, got, want []T, d Dims, lo, hi int) {
	t.Helper()
	for i := range got {
		p := i / 4 % d.PatternCount
		if p < lo || p >= hi {
			if !bitsEqual(got[i], partials4Canary) {
				t.Fatalf("%s: entry %d outside [%d, %d) overwritten with %v", name, i, lo, hi, got[i])
			}
			continue
		}
		if !sameResult(got[i], want[i]) {
			t.Fatalf("%s: entry %d (pattern %d, state %d) is %v (%#x), full width %v (%#x)", name, i, p, i%4,
				got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
		}
	}
}

func testCompact4Exact[T Real](t *testing.T, finite, specials []T) {
	rng := rand.New(rand.NewSource(40))
	for k := 2; k <= 5; k++ {
		for _, patterns := range []int{1, 7, 129, 1001} {
			for _, cats := range []int{1, 4} {
				d := Dims{StateCount: 4, PatternCount: patterns, CategoryCount: cats}
				lo, hi := 0, patterns
				if patterns > 2 {
					lo, hi = 1, patterns-1 // odd start, odd or even length
				}
				// Non-finite matrix entries spread to most rows above them,
				// so two trees of three keep to finite specials.
				for _, sp := range [][]T{finite, finite, specials} {
					compactTree(t, rng, k, d, sp, lo, hi)
				}
			}
		}
	}
}

// checkCompactBuilders holds SideRows4 of tab (r1 rows a category) through
// m, and ClassTable4 of tab and s2 (r2 rows), to their Go bodies: the same
// bits, NaN as NaN, and the canaries past each table's end untouched.
func checkCompactBuilders[T Real](t *testing.T, name string, tab, m []T, r1 int, s2 []T, r2, cats int) {
	t.Helper()
	const pad = 9
	check := func(what string, got, want []T) {
		t.Helper()
		n := len(got) - pad
		for i := range got {
			if i >= n && !bitsEqual(got[i], partials4Canary) {
				t.Fatalf("%s %s: canary %d past the table's end overwritten with %v", name, what, i-n, got[i])
			}
			if i < n && !sameResult(got[i], want[i]) {
				t.Fatalf("%s %s: entry %d (row %d, state %d) is %v (%#x), Go body %v (%#x)", name, what, i, i/4, i%4,
					got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
			}
		}
	}
	got, want := canaries[T](r1*cats*4+pad), canaries[T](r1*cats*4+pad)
	SideRows4(got, tab, m, r1, cats)
	sideRows4Cats(want, tab, m, r1, cats)
	check("SideRows4", got, want)
	got, want = canaries[T](r1*r2*cats*4+pad), canaries[T](r1*r2*cats*4+pad)
	ClassTable4(got, tab, r1, s2, r2, cats)
	classTable4Cats(want, tab, r1, s2, r2, cats)
	check("ClassTable4", got, want)
}

// testCompactBuilders checks both table builders on every row count from 1
// to 40 and the k = 3, 4 and 5 nodes' 125, 625 and 3 125, in 1 to 4
// categories, each count as the first child's rows and as the second's.
func testCompactBuilders[T Real](t *testing.T, specials []T) {
	rng := rand.New(rand.NewSource(43))
	counts := []int{125, 625, 3125}
	for r := 1; r <= 40; r++ {
		counts = append(counts, r)
	}
	for _, r := range counts {
		for cats := 1; cats <= 4; cats++ {
			m := randomOperand(rng, cats*16, specials)
			other := 1 + rng.Intn(6)
			for _, rr := range [][2]int{{r, other}, {other, r}} {
				tab := randomOperand(rng, rr[0]*cats*4, specials)
				s2 := randomOperand(rng, rr[1]*cats*4, specials)
				name := fmt.Sprintf("r1=%d r2=%d C=%d", rr[0], rr[1], cats)
				checkCompactBuilders(t, name, tab, m, rr[0], s2, rr[1], cats)
			}
		}
	}
}

// TestCompact4Exact holds every compact row to the full-width kernels' row,
// bit for bit with NaN as NaN: class tables (through ExpandClasses4) and the
// two gathers, assembly and Go body, on subtrees of 2 to 5 tips with gaps,
// signed zeros, subnormals, infinities and NaNs in the matrices, odd pattern
// counts and odd spans, in both precisions. The builders subtests hold the
// table builders' assembly to their Go bodies over row counts the trees do
// not reach.
func TestCompact4Exact(t *testing.T) {
	t.Logf("4-state kernels accelerated: %v", vecMatAccelerated)
	t.Run("float64", func(t *testing.T) {
		testCompact4Exact(t, vecMatSpecials[float64](math.SmallestNonzeroFloat64, 1e150),
			partials4Specials[float64](math.SmallestNonzeroFloat64, 1e150))
	})
	t.Run("float32", func(t *testing.T) {
		testCompact4Exact(t, vecMatSpecials[float32](math.SmallestNonzeroFloat32, 1e17),
			partials4Specials[float32](math.SmallestNonzeroFloat32, 1e17))
	})
	t.Run("float64/builders", func(t *testing.T) {
		testCompactBuilders(t, partials4Specials[float64](math.SmallestNonzeroFloat64, 1e150))
	})
	t.Run("float32/builders", func(t *testing.T) {
		testCompactBuilders(t, partials4Specials[float32](math.SmallestNonzeroFloat32, 1e17))
	})
}

// FuzzCompact4 builds the table builders' operands from arbitrary bytes —
// entries in either precision, any row counts up to 40 for both children in
// up to four categories — and holds SideRows4 and ClassTable4 to their Go
// bodies, canaries included.
func FuzzCompact4(f *testing.F) {
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	f.Add(float64Bytes(0.25, 0.5, 1, 2, 3, 0.125), uint8(5), uint8(5), uint8(1), false)
	f.Add(float64Bytes(0.25, 0.5, 1, 2, 3, 0.125), uint8(25), uint8(5), uint8(3), true)
	f.Add(float64Bytes(negZero, 1e-310, inf, -inf, nan, 1), uint8(7), uint8(2), uint8(0), false)
	f.Add(float64Bytes(1e-40, -1e-45, 3, -0.5, 1e38, 2), uint8(1), uint8(40), uint8(2), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 4, 5, 6}, uint8(0), uint8(3), uint8(3), true)
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, r1Sel, r2Sel, catSel uint8, single bool) {
		r1, r2, cats := int(r1Sel)%41, int(r2Sel)%41, 1+int(catSel)%4
		name := fmt.Sprintf("r1=%d r2=%d C=%d single=%v", r1, r2, cats, single)
		if single {
			fuzzCompact4(t, name, r1, r2, cats, fuzzEntries[float32](data))
		} else {
			fuzzCompact4(t, name, r1, r2, cats, fuzzEntries[float64](data))
		}
	})
}

func fuzzCompact4[T Real](t *testing.T, name string, r1, r2, cats int, entries func(int) []T) {
	tab, m, s2 := entries(r1*cats*4), entries(cats*16), entries(r2*cats*4)
	checkCompactBuilders(t, name, tab, m, r1, s2, r2, cats)
}

// BenchmarkCompact4 times a compact operation against the full-width kernel
// it replaces, at nuc_large's shape (20 000 patterns, four categories), in
// both precisions. k=K/compact builds a node of K tips from its children's
// class tables (a ⌊K/2⌋ + ⌈K/2⌉ split): both side tables, ClassTable4 and the
// class ids, which an engine caches and rebuilds only when tip data changes;
// k=K/full is the kernel a full-width engine runs for that split
// (StatesStates4, StatesPartials4 or PartialsPartials4). gather×gather is a
// full-width node over compact children of 3 and 4 tips (125 and 625
// classes), gather×partials one over a 4-tip compact child and a partials
// child, each against PartialsPartials4; their side tables are built
// outside the timed loop, as an engine builds them once per batch.
//
// Stop rule: at k = 4 the compact operation must be at least twice as fast
// as its full-width kernel. On a 2-vCPU Xeon with AVX2 (-benchtime 200x) it
// took 17 µs against PartialsPartials4's 131 µs in float32 and 16 µs against
// 314 µs in float64, the class ids' pass over the patterns being most of it.
// The gathers must be no slower than PartialsPartials4. The Go
// gather × gather body is not (340 µs float32, 355 µs float64, against 128
// and 305), so both gathers run in AVX2 under VecMatT's CPUID gate
// (partials4_amd64.s): gather × gather took 59 and 105 µs, gather × partials
// 92 and 214 µs.
//
// side/R and table/R time the two table builders alone at the k = 4 and
// k = 5 nodes' R rows a category (a class table of 25 × 25 and 25 × 125
// rows), /go their Go bodies. The builders run serially in an engine's
// plan, where the Go bodies took about a quarter of nuc_large's CPU samples,
// so they run in AVX2 too. Same host, -benchtime 3000x -count 5, medians,
// Go body → AVX2 at 625 and 3 125 rows: side rows 18.4 → 3.0 µs and 57.2 →
// 12.1 µs in float32, 16.8 → 5.3 µs and 87.3 → 20.2 µs in float64; class
// tables 13.1 → 1.8 µs and 60.8 → 6.4 µs in float32, 13.7 → 2.2 µs and
// 65.5 → 11.1 µs in float64.
func BenchmarkCompact4(b *testing.B) {
	b.Run("float32", func(b *testing.B) { benchCompact4[float32](b) })
	b.Run("float64", func(b *testing.B) { benchCompact4[float64](b) })
}

func benchCompact4[T Real](b *testing.B) {
	const patterns, cats = 20000, 4
	rng := rand.New(rand.NewSource(40))
	pr := newProblem[T](rng, 4, patterns, cats)
	d := pr.d
	dest := make([]T, d.PartialsLen())
	// node returns a compact subtree of k tips: its class table and ids.
	var node func(k int) (tab []T, ids []int32, rows int)
	node = func(k int) ([]T, []int32, int) {
		ids := make([]int32, patterns)
		if k == 1 {
			for p := range ids {
				ids[p] = int32(rng.Intn(5))
			}
			return nil, ids, 5
		}
		ta, ia, ra := node(k / 2)
		tb, ib, rb := node(k - k/2)
		s1, s2 := compactSide(ta, ra, pr.m1, cats), compactSide(tb, rb, pr.m2, cats)
		tab := make([]T, ra*rb*cats*4)
		ClassTable4(tab, s1, ra, s2, rb, cats)
		ClassIDs(ids, ia, int32(rb), ib)
		return tab, ids, ra * rb
	}
	for k := 2; k <= 5; k++ {
		ta, ia, ra := node(k / 2)
		tb, ib, rb := node(k - k/2)
		s1, s2 := make([]T, ra*cats*4), make([]T, rb*cats*4)
		tab := make([]T, ra*rb*cats*4)
		ids := make([]int32, patterns)
		b.Run(fmt.Sprintf("k=%d/compact", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compactSideInto(s1, ta, ra, pr.m1, cats)
				compactSideInto(s2, tb, rb, pr.m2, cats)
				ClassTable4(tab, s1, ra, s2, rb, cats)
				ClassIDs(ids, ia, int32(rb), ib)
			}
		})
		b.Run(fmt.Sprintf("k=%d/full", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch {
				case ta == nil && tb == nil:
					StatesStates4(dest, ia, pr.m1, ib, pr.m2, d, 0, patterns)
				case ta == nil:
					StatesPartials4(dest, ia, pr.m1, pr.p2, pr.m2, d, 0, patterns)
				default:
					PartialsPartials4(dest, pr.p1, pr.m1, pr.p2, pr.m2, d, 0, patterns)
				}
			}
		})
	}
	t3, i3, r3 := node(3)
	t4, i4, r4 := node(4)
	s3, s4 := compactSide(t3, r3, pr.m1, cats), compactSide(t4, r4, pr.m2, cats)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"gather×gather", func() { GatherGather4(dest, i3, s3, r3, i4, s4, r4, d, 0, patterns) }},
		{"gather×gather/go", func() {
			for c := 0; c < cats; c++ {
				gatherGather4Go(dest[c*patterns*4:(c+1)*patterns*4], i3, s3[c*r3*4:], i4, s4[c*r4*4:])
			}
		}},
		{"gather×partials", func() { GatherPartials4(dest, i4, s4, r4, pr.p2, pr.m2, d, 0, patterns) }},
		{"PartialsPartials4", func() { PartialsPartials4(dest, pr.p1, pr.m1, pr.p2, pr.m2, d, 0, patterns) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn()
			}
		})
	}
	// The table builders alone, at the k = 4 and k = 5 nodes' sizes: side
	// rows through a matrix, and a class table of 25 × 25 and 25 × 125 rows,
	// each also in its Go body.
	t2, _, r2 := node(2)
	t5, _, r5 := node(5)
	s2 := compactSide(t2, r2, pr.m1, cats)
	side := make([]T, r5*cats*4)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"side/625", func() { SideRows4(side, t4, pr.m1, r4, cats) }},
		{"side/625/go", func() { sideRows4Cats(side, t4, pr.m1, r4, cats) }},
		{"side/3125", func() { SideRows4(side, t5, pr.m1, r5, cats) }},
		{"side/3125/go", func() { sideRows4Cats(side, t5, pr.m1, r5, cats) }},
		{"table/625", func() { ClassTable4(side, s2, r2, s2, r2, cats) }},
		{"table/625/go", func() { classTable4Cats(side, s2, r2, s2, r2, cats) }},
		{"table/3125", func() { ClassTable4(side, s2, r2, s3, r3, cats) }},
		{"table/3125/go", func() { classTable4Cats(side, s2, r2, s3, r3, cats) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn()
			}
		})
	}
}

// compactSide is a subtree's side table through m, fresh: the tip side for
// a nil table.
func compactSide[T Real](tab []T, rows int, m []T, cats int) []T {
	out := make([]T, rows*cats*4)
	compactSideInto(out, tab, rows, m, cats)
	return out
}

func compactSideInto[T Real](out, tab []T, rows int, m []T, cats int) {
	if tab == nil {
		TipSide4(out, m, cats)
	} else {
		SideRows4(out, tab, m, rows, cats)
	}
}

// sideRows4Cats is SideRows4 run on its Go body alone, category by category.
func sideRows4Cats[T Real](out, tab, m []T, rows, cats int) {
	for c := 0; c < cats; c++ {
		sideRows4Go(out[c*rows*4:(c+1)*rows*4], tab[c*rows*4:(c+1)*rows*4], m[c*16:c*16+16])
	}
}

// classTable4Cats is ClassTable4 run on its Go body alone, category by
// category.
func classTable4Cats[T Real](tab, s1 []T, r1 int, s2 []T, r2, cats int) {
	for c := 0; c < cats; c++ {
		classTable4Go(tab[c*r1*r2*4:(c+1)*r1*r2*4], s1[c*r1*4:(c+1)*r1*4], s2[c*r2*4:(c+1)*r2*4])
	}
}
