package kernels

// Compact subtrees, four states. A node with few tips below has few distinct
// partials rows: a compact-state tip has five (four states and the gap), and
// a node whose children have R₁ and R₂ has at most R₁·R₂. A pattern's row is
// named by a class id, the mixed-radix number c = c₁·R₂ + c₂ of its
// children's ids, so it is computed, not found. Such a node is stored as a
// class table — R rows per category, laid out [category][class][state] like
// a partials buffer with R patterns — plus one id per pattern.
//
// Every row here is built from the unrolled bodies' own operations in their
// own order (partials4.go), so it carries their bits:
//
//   - a side row is what one child contributes to its parent through the
//     child's matrix M: for a compact node, M·row with
//     ((m0·a0 + m1·a1) + m2·a2) + m3·a3 per state, as partialsPartials4Go
//     computes for a partials child; for a compact-state tip, column a of M,
//     or ones for the gap, as statesPartials4Go and StatesStates4 use;
//   - a parent row is the product of its two children's side rows.
//
// A compact parent's table is therefore every product of its children's side
// tables (ClassTable4), and a full-width parent of compact children gathers
// its children's side rows by id (GatherGather4, GatherPartials4) instead of
// recomputing them per pattern. ExpandClasses4 writes a compact node out at
// full width, for the boundaries that need one.
//
// Every loop here but TipSide4's, ClassIDs' and ExpandClasses4's runs in AVX2
// assembly under the gate of the other 4-state kernels (partials4_amd64.s),
// with the Go bodies as the portable path and the references the assembly is
// held to. GatherPartials4 is StatesPartials4's loop with the five tip
// columns replaced by a side table of any height; SideRows4 is its matrix
// half with a plain store, one row a register in float64 and two in float32
// (an odd last row runs the Go body); ClassTable4 holds a row of the first
// side table in a register and multiplies the second table's rows by it.

// TipSide4 writes a compact-state tip's side table through m into out: five
// rows per category, row a (< 4) column a of that category's matrix and row
// 4, the gap, all ones.
//
//beagle:noalloc
func TipSide4[T Real](out, m []T, cats int) {
	for c := 0; c < cats; c++ {
		mc := m[c*16 : c*16+16]
		o := out[c*20 : c*20+20]
		for a := 0; a < 4; a++ {
			o[a*4], o[a*4+1], o[a*4+2], o[a*4+3] = mc[a], mc[4+a], mc[8+a], mc[12+a]
		}
		o[16], o[17], o[18], o[19] = 1, 1, 1, 1
	}
}

// SideRows4 writes a compact node's side table through m into out: row r of
// category c is that category's matrix times row r of tab, both tables
// holding rows rows per category.
//
//beagle:noalloc
func SideRows4[T Real](out, tab, m []T, rows, cats int) {
	n := asmPatterns4[T](0, rows) // rows take a pattern's place: 4 entries each
	var mt [16]T
	for c := 0; c < cats; c++ {
		o := out[c*rows*4 : (c+1)*rows*4]
		a := tab[c*rows*4 : (c+1)*rows*4]
		mc := m[c*16 : c*16+16]
		if n > 0 {
			transpose4(mt[:], mc)
			sideRows4Asm(o[:4*n], a[:4*n], mt[:])
		}
		sideRows4Go(o[4*n:], a[4*n:], mc)
	}
}

// sideRows4Go is SideRows4's portable body for one category, out and tab cut
// to its rows and n its matrix, and the reference its assembly is held to.
//
//beagle:noalloc
func sideRows4Go[T Real](out, tab, n []T) {
	n = n[:16]
	for len(out) >= 4 && len(tab) >= 4 {
		a0, a1, a2, a3 := tab[0], tab[1], tab[2], tab[3]
		out[0] = T(n[0]*a0) + T(n[1]*a1) + T(n[2]*a2) + T(n[3]*a3)
		out[1] = T(n[4]*a0) + T(n[5]*a1) + T(n[6]*a2) + T(n[7]*a3)
		out[2] = T(n[8]*a0) + T(n[9]*a1) + T(n[10]*a2) + T(n[11]*a3)
		out[3] = T(n[12]*a0) + T(n[13]*a1) + T(n[14]*a2) + T(n[15]*a3)
		out, tab = out[4:], tab[4:]
	}
}

// ClassTable4 writes a compact node's class table into tab: row i·r2 + j of
// category c is row i of side table s1 times row j of s2, entrywise, the
// first child's factor first.
//
//beagle:noalloc
func ClassTable4[T Real](tab, s1 []T, r1 int, s2 []T, r2, cats int) {
	for c := 0; c < cats; c++ {
		o := tab[c*r1*r2*4 : (c+1)*r1*r2*4]
		f := s1[c*r1*4 : (c+1)*r1*4]
		g := s2[c*r2*4 : (c+1)*r2*4]
		if !classTable4Asm(o, f, g) {
			classTable4Go(o, f, g)
		}
	}
}

// classTable4Go is ClassTable4's portable body for one category, tab, s1
// and s2 cut to its rows, and the reference its assembly is held to.
//
//beagle:noalloc
func classTable4Go[T Real](tab, s1, s2 []T) {
	r2 := len(s2) / 4
	for i := 0; i < len(s1)/4; i++ {
		f := (*[4]T)(s1[i*4:])
		o := tab[i*r2*4 : (i+1)*r2*4]
		for j := 0; j < r2; j++ {
			g := (*[4]T)(s2[j*4:])
			*(*[4]T)(o[j*4:]) = [4]T{f[0] * g[0], f[1] * g[1], f[2] * g[2], f[3] * g[3]}
		}
	}
}

// ClassIDs writes the mixed-radix class ids ids[p] = a[p]·r2 + b[p] of a
// node whose children's ids are a and b, the second child having r2
// classes.
//
//beagle:noalloc
func ClassIDs(ids, a []int32, r2 int32, b []int32) {
	a, b = a[:len(ids)], b[:len(ids)]
	for p := range ids {
		ids[p] = a[p]*r2 + b[p]
	}
}

// GatherGather4 computes a full-width destination both of whose children are
// compact, for patterns [lo, hi): each entry is the product of the two
// children's side rows for the pattern's class ids, g1[p] into s1 (r1 rows a
// category) and g2[p] into s2 (r2 rows). Every id must be below its table's
// row count.
//
//beagle:noalloc
func GatherGather4[T Real](dest []T, g1 []int32, s1 []T, r1 int, g2 []int32, s2 []T, r2 int, d Dims, lo, hi int) {
	if hi <= lo {
		return
	}
	for c := 0; c < d.CategoryCount; c++ {
		o := (c*d.PatternCount + lo) * 4
		out := dest[o : o+4*(hi-lo)]
		t1, t2 := s1[c*r1*4:(c+1)*r1*4], s2[c*r2*4:(c+1)*r2*4]
		if !gatherGather4Asm(out, g1[lo:hi], t1, g2[lo:hi], t2) {
			gatherGather4Go(out, g1[lo:hi], t1, g2[lo:hi], t2)
		}
	}
}

// gatherGather4Go is GatherGather4's portable body for one category, out
// cut to the span, and the reference its assembly is held to.
//
//beagle:noalloc
func gatherGather4Go[T Real](out []T, g1 []int32, t1 []T, g2 []int32, t2 []T) {
	g2 = g2[:len(g1)]
	for p := range g1 {
		f := (*[4]T)(t1[4*g1[p]:])
		g := (*[4]T)(t2[4*g2[p]:])
		*(*[4]T)(out[4*p:]) = [4]T{f[0] * g[0], f[1] * g[1], f[2] * g[2], f[3] * g[3]}
	}
}

// GatherPartials4 computes a full-width destination whose first child is
// compact and whose second holds partials, for patterns [lo, hi): the first
// child's side row for the pattern's class id g1[p] into s1 (r1 rows a
// category) times m2 applied to the second child's row, as statesPartials4Go
// multiplies a tip's column by the partials child's sum.
//
//beagle:noalloc
func GatherPartials4[T Real](dest []T, g1 []int32, s1 []T, r1 int, p2, m2 []T, d Dims, lo, hi int) {
	n := asmPatterns4[T](lo, hi)
	var mt [16]T
	for c := 0; c < d.CategoryCount; c++ {
		t1 := s1[c*r1*4 : (c+1)*r1*4]
		if n > 0 {
			transpose4(mt[:], m2[c*16:c*16+16])
			o := (c*d.PatternCount + lo) * 4
			e := o + 4*n
			gatherPartials4Asm(dest[o:e], g1[lo:lo+n], t1, p2[o:e], mt[:])
		}
		gatherPartials4Go(dest, g1, t1, p2, m2, d, c, lo+n, hi)
	}
}

// gatherPartials4Go is GatherPartials4's portable body for category c and
// patterns [lo, hi), and the reference its assembly is held to.
//
//beagle:noalloc
func gatherPartials4Go[T Real](dest []T, g1 []int32, t1, p2, m2 []T, d Dims, c, lo, hi int) {
	n := m2[c*16 : c*16+16]
	for p := lo; p < hi; p++ {
		o := (c*d.PatternCount + p) * 4
		b0, b1, b2, b3 := p2[o], p2[o+1], p2[o+2], p2[o+3]
		t0 := T(n[0]*b0) + T(n[1]*b1) + T(n[2]*b2) + T(n[3]*b3)
		t1v := T(n[4]*b0) + T(n[5]*b1) + T(n[6]*b2) + T(n[7]*b3)
		t2 := T(n[8]*b0) + T(n[9]*b1) + T(n[10]*b2) + T(n[11]*b3)
		t3 := T(n[12]*b0) + T(n[13]*b1) + T(n[14]*b2) + T(n[15]*b3)
		f := (*[4]T)(t1[4*g1[p]:])
		dest[o] = f[0] * t0
		dest[o+1] = f[1] * t1v
		dest[o+2] = f[2] * t2
		dest[o+3] = f[3] * t3
	}
}

// ExpandClasses4 writes a compact node at full width into out: pattern p of
// category c is row ids[p] of that category's rows rows of tab.
//
//beagle:noalloc
func ExpandClasses4[T Real](out, tab []T, ids []int32, rows int, d Dims) {
	for c := 0; c < d.CategoryCount; c++ {
		t := tab[c*rows*4 : (c+1)*rows*4]
		o := out[c*d.PatternCount*4 : (c+1)*d.PatternCount*4]
		for p, id := range ids[:d.PatternCount] {
			*(*[4]T)(o[4*p:]) = *(*[4]T)(t[4*id:])
		}
	}
}
