// Package noalloc is the analyzer fixture: each annotated function seeds one
// class of allocating construct the analyzer must reject, and the clean
// functions at the bottom pin down what it must accept.
package noalloc

import (
	"fmt"
	"time"
)

type point struct{ x, y int }

//beagle:noalloc
func UsesMake(n int) int {
	xs := make([]int, n) // want `make allocates`
	return len(xs)
}

//beagle:noalloc
func UsesNew() int {
	p := new(int) // want `new allocates`
	return *p
}

//beagle:noalloc
func UsesAppend(xs []int) []int {
	xs = append(xs, 1) // want `append may grow and reallocate`
	return xs
}

//beagle:noalloc
func SliceLiteral() int {
	xs := []int{1, 2, 3} // want `slice literal allocates`
	return xs[0]
}

//beagle:noalloc
func MapLiteral() int {
	m := map[string]int{} // want `map literal allocates`
	return len(m)
}

//beagle:noalloc
func CompositeAddress() *point {
	return &point{1, 2} // want `address of composite literal escapes`
}

//beagle:noalloc
func Captures(n int) func() int {
	return func() int { return n } // want `closure captures n and escapes`
}

//beagle:noalloc
func Spawns() {
	go cleanHelper() // want `go statement allocates a goroutine`
}

//beagle:noalloc
func Concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//beagle:noalloc
func ConcatAssign(s string) string {
	s += "!" // want `string concatenation allocates`
	return s
}

//beagle:noalloc
func StringToBytes(s string) int {
	b := []byte(s) // want `conversion allocates`
	return len(b)
}

//beagle:noalloc
func BytesToString(b []byte) int {
	s := string(b) // want `conversion allocates`
	return len(s)
}

//beagle:noalloc
func ConvertsToInterface(n int) int {
	v := any(n) // want `conversion to interface type any boxes its operand`
	_, _ = v.(int)
	return n
}

//beagle:noalloc
func AssignsToInterface(n int) {
	var x any
	x = n // want `assignment boxes a concrete value into an interface`
	_ = x
}

//beagle:noalloc
func ReturnsInterface(n int) any {
	return n // want `return boxes a concrete value into an interface result`
}

//beagle:noalloc
func ArgBoxes(n int) {
	takesAny(n) // want `argument boxes int into interface any`
}

//beagle:noalloc
func CallsFmt() {
	fmt.Println() // want `call to fmt.Println allocates`
}

//beagle:noalloc
func CallsTimeNow() int64 {
	return time.Now().UnixNano() // want `time.Now is forbidden`
}

//beagle:noalloc
func CallsUnannotated() {
	helper() // want `calls same-package helper, which is not`
}

// helper is deliberately not annotated.
func helper() {}

//beagle:noalloc
func takesAny(v any) { _ = v }

//beagle:noalloc
func cleanHelper() {}

// Clean exercises the constructs the analyzer must tolerate: arithmetic,
// indexing, range over a parameter slice, element writes, nil interface
// assignment, and calls to annotated same-package functions.
//
//beagle:noalloc
func Clean(xs []float64, out []float64) float64 {
	var sum float64
	for i, v := range xs {
		out[i] = v * 2
		sum += v
	}
	cleanHelper()
	var err error
	err = nil
	_ = err
	return sum
}

// NotAnnotated may allocate freely; the analyzer must ignore it.
func NotAnnotated(n int) []int {
	return make([]int, n)
}

// --- span-tracer record-path patterns ------------------------------------
// The span tracer (internal/trace) annotates its Record path
// //beagle:noalloc; these fixtures seed the mistakes that would silently
// break it — taking timestamps inside the record path, heap-building spans,
// growing a span slice, boxing span fields — and pin down the ring-store
// shape the real path must keep.

type span struct {
	kind  uint8
	lane  int32
	start int64
	dur   int64
}

type ring struct {
	count uint64
	slots [4]span
}

//beagle:noalloc
func RecordTakesTimestamp(r *ring, s span) {
	s.start = time.Now().UnixNano() // want `time.Now is forbidden`
	r.slots[r.count%4] = s
	r.count++
}

//beagle:noalloc
func RecordHeapBuildsSpan() *span {
	return &span{kind: 1} // want `address of composite literal escapes`
}

//beagle:noalloc
func RecordGrowsSlice(spans []span, s span) []span {
	return append(spans, s) // want `append may grow and reallocate`
}

//beagle:noalloc
func RecordBoxesField(s span) {
	takesAny(s.lane) // want `argument boxes int32 into interface any`
}

// CleanRecord is the shape the real record path must keep: a value struct
// (built inline, no pointer) stored into a fixed ring slot behind a
// modular index, counters bumped in place, no timestamps and no boxing.
//
//beagle:noalloc
func CleanRecord(r *ring, lane int32, start, dur int64) {
	r.slots[r.count%4] = span{kind: 2, lane: lane, start: start, dur: dur}
	r.count++
}

// --- cache hit-path patterns ---------------------------------------------
// The reuse tracker (internal/reuse) annotates its per-operation decision
// path //beagle:noalloc: it runs once per submitted op on every proposal, so
// a single allocation there erodes the very speedup it exists to buy. These
// fixtures seed the tempting shortcuts — string signature keys, a per-call
// map of seen destinations, growing a kept-ops slice, boxing buffer indices
// into an any-keyed lookup — and pin down the version-counter compare the
// real decision path must keep.

type opKey struct {
	dest, c1, c2 int
	c1Ver, c2Ver uint64
}

type cache struct {
	vers []uint64
	sigs []opKey
	hits uint64
}

//beagle:noalloc
func DecideWithStringKey(dest int, sigs []string) bool {
	return sigs[dest] == fmt.Sprintf("op") // want `call to fmt.Sprintf allocates`
}

//beagle:noalloc
func DecideWithSeenMap(ops []opKey) int {
	seen := map[int]bool{} // want `map literal allocates`
	for _, op := range ops {
		seen[op.dest] = true
	}
	return len(seen)
}

//beagle:noalloc
func DecideGrowsKeptOps(kept []opKey, op opKey) []opKey {
	return append(kept, op) // want `append may grow and reallocate`
}

//beagle:noalloc
func DecideBoxesIndex(dest int) {
	takesAny(dest) // want `argument boxes int into interface any`
}

//beagle:noalloc
func DecideHeapBuildsKey(dest int) *opKey {
	return &opKey{dest: dest} // want `address of composite literal escapes`
}

// A type switch on a boxed value is allocating syntax that does not allocate
// when the value stays in the frame; a reasoned waiver accepts it, an
// unreasoned one is itself reported.
//
//beagle:noalloc
func DecideWaivedBoxing(dest int) bool {
	_, ok := any(dest).(int) //beagle:allow noalloc boxed only to be asserted back; the AllocsPerRun guard holds it to zero
	return ok
}

//beagle:noalloc
func DecideWaivedWithoutReason(dest int) bool {
	//beagle:allow noalloc
	_, ok := any(dest).(int) // want `//beagle:allow noalloc waiver needs a reason`
	return ok
}

// CleanDecide is the shape the real decision path must keep: compare the
// stored signature's input versions against the live counters, overwrite the
// signature slot in place on a miss (a value struct literal, not a pointer),
// and bump counters without formatting, maps, or boxing.
//
//beagle:noalloc
func CleanDecide(c *cache, dest, c1, c2 int) bool {
	sig := c.sigs[dest]
	if sig.c1 == c1 && sig.c2 == c2 && sig.c1Ver == c.vers[c1] && sig.c2Ver == c.vers[c2] {
		c.hits++
		return false
	}
	c.sigs[dest] = opKey{dest: dest, c1: c1, c2: c2, c1Ver: c.vers[c1], c2Ver: c.vers[c2]}
	c.vers[dest]++
	return true
}
