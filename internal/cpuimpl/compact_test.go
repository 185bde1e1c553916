package cpuimpl

import (
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// compactProblem is 12 tips over 700 simulated sites, enough distinct
// patterns that every node of up to three tips below is compact.
func compactProblem(t *testing.T) (*tree.Tree, *substmodel.Model, *substmodel.SiteRates, *seqgen.PatternSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(40))
	tr, err := tree.Random(rng, 12, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, rates := hkyModel(t)
	align, err := seqgen.Simulate(rng, tr, m, rates, 700)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, rates, seqgen.CompressPatterns(align)
}

// hkyModel is the HKY model and four gamma rate categories the compact
// tests share.
func hkyModel(t *testing.T) (*substmodel.Model, *substmodel.SiteRates) {
	t.Helper()
	m, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m, rates
}

// TestCompactSubtreesAreTablesNotRows holds the modes that run the 4-state
// kernels to keeping every operation with at most three tips below (125
// classes, a quarter of 520 patterns at most) as a class table, rescaling or
// not: its partials buffer is never allocated, the batch counts it as
// computed, and every result — root, edge and edge derivatives across a
// compact child, and GetPartials of every internal buffer — is Serial's, bit
// for bit.
func TestCompactSubtreesAreTablesNotRows(t *testing.T) {
	tr, m, rates, ps := compactProblem(t)
	sched := tr.FullSchedule()
	tips := map[int]int{}
	for i := 0; i < tr.TipCount; i++ {
		tips[i] = 1
	}
	compact := map[int]bool{}
	for _, op := range sched.Ops {
		tips[op.Dest] = tips[op.Child1] + tips[op.Child2]
		compact[op.Dest] = int(math.Pow(5, float64(tips[op.Dest])))*4 <= ps.PatternCount()
	}
	var edgeChild int
	for _, op := range sched.Ops {
		if compact[op.Dest] {
			edgeChild = op.Dest
		}
	}
	if len(compact) == 0 || edgeChild == 0 {
		t.Fatalf("no compact operation at %d patterns", ps.PatternCount())
	}

	run := func(mode Mode, scaled bool) (engine.Engine, []float64) {
		e, err := New(testConfig(tr, 4, ps.PatternCount(), 4, false), mode)
		if err != nil {
			t.Fatal(err)
		}
		lnL := driveEngine(t, e, tr, m, rates, ps, true, scaled)
		edge, err := e.CalculateEdgeLogLikelihoods(sched.Root, edgeChild, edgeChild, engine.None)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.UpdateTransitionDerivatives(0, []int{0}, []int{1}, []float64{0.2}); err != nil {
			t.Fatal(err)
		}
		dl, d1, d2, err := e.CalculateEdgeDerivatives(sched.Root, edgeChild, edgeChild, 0, 1, engine.None)
		if err != nil {
			t.Fatal(err)
		}
		out := []float64{lnL, edge, dl, d1, d2}
		for _, op := range sched.Ops {
			p, err := e.GetPartials(op.Dest)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p...)
		}
		return e, out
	}
	for _, scaled := range []bool{false, true} {
		ref, want := run(Serial, scaled)
		ref.Close()
		for _, mode := range Modes()[1:] {
			e, got := run(mode, scaled)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v scaled=%v: value %d is %v, Serial %v", mode, scaled, i, got[i], want[i])
				}
			}
			st := e.(*Engine[float64]).Storage
			for _, op := range sched.Ops {
				if tabled := st.Partials[op.Dest] == nil; tabled != compact[op.Dest] {
					t.Errorf("%v scaled=%v: operation into %d (%d tips) keeps a table: %v", mode, scaled, op.Dest, tips[op.Dest], tabled)
				}
			}
			e.Close()
		}
	}
}

// scaleCase is a hand-made problem for the compact planner's scale rules:
// tips 0–2 hold compact states and tip 3 partials, so an operation with tip
// 3 below it runs at full width and a cherry of the others can be a table.
type scaleCase struct {
	cfg  engine.Config
	mats [][]float64 // matrix i's values, set explicitly
}

// load gives e the case's tips, matrices and model, the same for every mode.
func (c scaleCase) load(t *testing.T, e engine.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(46))
	d := c.cfg.Dims
	for tip := 0; tip < c.cfg.TipCount; tip++ {
		if tip == 3 {
			v := make([]float64, d.PatternCount*4)
			for i := range v {
				v[i] = rng.Float64()
			}
			if err := e.SetTipPartials(tip, v); err != nil {
				t.Fatal(err)
			}
			continue
		}
		states := make([]int, d.PatternCount)
		for p := range states {
			states[p] = rng.Intn(5)
		}
		if err := e.SetTipStates(tip, states); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range c.mats {
		if err := e.SetTransitionMatrix(i, m); err != nil {
			t.Fatal(err)
		}
	}
}

// state is everything an operation batch left behind: every internal
// partials buffer, expanded, then every scale buffer written so far.
func (c scaleCase) state(t *testing.T, e engine.Engine) []float64 {
	t.Helper()
	var out []float64
	for b := c.cfg.TipCount; b < c.cfg.PartialsBuffers; b++ {
		if p, err := e.GetPartials(b); err == nil {
			out = append(out, p...)
		}
	}
	var scale [][]float64
	switch e := e.(type) {
	case *Engine[float64]:
		scale = e.Scale
	case *Engine[float32]:
		scale = e.Scale
	}
	for _, s := range scale {
		out = append(out, s...)
	}
	return out
}

// tabled reports whether buffer b holds a class table, not partials.
func tabled(e engine.Engine, b int) bool {
	switch e := e.(type) {
	case *Engine[float64]:
		return e.Partials[b] == nil
	case *Engine[float32]:
		return e.Partials[b] == nil
	}
	return false
}

// run submits the batches to Serial and to every other mode and holds each
// mode's state after every batch to Serial's, bit for bit, and its buffers
// to the representation tables[i] names for batch i: a class table when
// true, partials when false.
func (c scaleCase) run(t *testing.T, batches [][]engine.Operation, tables []map[int]bool) {
	t.Helper()
	ref, err := New(c.cfg, Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	c.load(t, ref)
	want := make([][]float64, len(batches))
	for i, ops := range batches {
		if err := ref.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
		want[i] = c.state(t, ref)
	}
	for _, mode := range Modes()[1:] {
		e, err := New(c.cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		c.load(t, e)
		for i, ops := range batches {
			if err := e.UpdatePartials(ops); err != nil {
				t.Fatal(err)
			}
			got := c.state(t, e)
			if len(got) != len(want[i]) {
				t.Fatalf("%v batch %d: %d values, Serial %d", mode, i, len(got), len(want[i]))
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%v batch %d: value %d is %v, Serial %v", mode, i, j, got[j], want[i][j])
				}
			}
			for b, table := range tables[i] {
				if tabled(e, b) != table {
					t.Errorf("%v batch %d: buffer %d is a class table: %v, want %v", mode, i, b, !table, table)
				}
			}
		}
		e.Close()
	}
}

// newScaleCase is a scaleCase of tips tips and the given matrices, at 128
// patterns: a cherry's 25 classes are compact, a 125-class node is not.
func newScaleCase(tips int, single bool, mats ...[]float64) scaleCase {
	return scaleCase{cfg: engine.Config{
		TipCount: tips, PartialsBuffers: tips + 4, MatrixBuffers: len(mats), EigenBuffers: 1, ScaleBuffers: 3,
		Dims:            kernels.Dims{StateCount: 4, PatternCount: 128, CategoryCount: 4},
		SinglePrecision: single, Threads: 4, MinPatternsWork: 1,
	}, mats: mats}
}

// hkyMatrices is n transition matrices of an HKY model over four rate
// categories, at distinct edge lengths.
func hkyMatrices(t *testing.T, n int) [][]float64 {
	t.Helper()
	m, rates := hkyModel(t)
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	e := &kernels.Eigen{StateCount: 4, Values: ed.Values, Vectors: ed.Vectors.Data, InverseVectors: ed.InverseVectors.Data}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, 64)
		kernels.UpdateTransitionMatrix(out[i], e, 0.1*float64(i+1), rates.Rates)
	}
	return out
}

// op is an operation with one matrix per child, the child's own index.
func op(dest, c1, c2, scaleWrite, scaleRead int) engine.Operation {
	return engine.Operation{Dest: dest, DestScaleWrite: scaleWrite, DestScaleRead: scaleRead,
		Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2}
}

// TestCompactScaleBuffersKeepBatchOrder holds the compact planner's scale
// rules to Serial's partials and scale buffers, bit for bit. A rescaling
// cherry runs compact ahead of the batch's full-width operations, so it must
// stay full width when an earlier full-width operation of its batch writes
// the scale buffer it writes, or reads it (DestScaleRead); a cherry that
// reads a scale buffer stays full width. A rescaling cherry whose buffer only
// a later operation reads is a table, and that reader sees its factors.
func TestCompactScaleBuffersKeepBatchOrder(t *testing.T) {
	c := newScaleCase(4, false, hkyMatrices(t, 8)...)
	n := engine.None
	batches := [][]engine.Operation{
		// An earlier full-width writer of scale buffer 0; a compact writer
		// of 1 and a later full-width reader of it.
		{op(6, 2, 3, 0, n), op(4, 0, 1, 0, n), op(5, 1, 2, 1, n), op(7, 5, 3, n, 1)},
		// An earlier full-width reader of scale buffer 1.
		{op(6, 2, 3, n, 1), op(4, 0, 1, 1, n), op(5, 0, 2, 2, n)},
		// Cherries that read a scale buffer, with and without writing one.
		{op(4, 0, 1, n, 0), op(5, 1, 2, 2, 1), op(6, 0, 2, n, n)},
	}
	tables := []map[int]bool{
		{4: false, 5: true, 6: false, 7: false},
		{4: false, 5: true, 6: false},
		{4: false, 5: false, 6: true},
	}
	c.run(t, batches, tables)
}

// TestCompactRescaleRareRows rescales class tables whose rows take
// RescalePartials' rare path: a matrix column of zeros makes rows whose
// maximum is zero, and one of tiny entries rows whose maximum is subnormal
// (in float64 a subnormal double; in float32 a subnormal float, which the
// rescale widens to a normal double). The table's factors, its rows and a
// full-width parent gathering them are Serial's, bit for bit, in both
// precisions.
func TestCompactRescaleRareRows(t *testing.T) {
	for _, single := range []bool{false, true} {
		tiny := 1e-160
		if single {
			tiny = 1e-20
		}
		mats := hkyMatrices(t, 8)
		for _, m := range mats[:2] {
			for cat := 0; cat < 4; cat++ {
				for i := 0; i < 4; i++ {
					m[cat*16+i*4], m[cat*16+i*4+1] = 0, tiny // columns 0 and 1
				}
			}
		}
		c := newScaleCase(4, single, mats...)
		n := engine.None
		c.run(t, [][]engine.Operation{{op(4, 0, 1, 0, n), op(5, 4, 3, 1, n), op(6, 4, 2, 2, n)}},
			[]map[int]bool{{4: true, 5: false, 6: false}})
	}
}

// TestCompactStoreGathersTips holds a compact store to binding no
// compact-state operand: Resolve gathers a tip below a full-width operation
// through its five-row side table, so every operation it returns has S1 and
// S2 nil. It covers the four places where a tip meets a full-width
// operation: beside a partials child, and in a cherry under 100 patterns, a
// cherry reading a scale buffer, or a cherry listed after a full-width
// operation on its destination. Every mode's root and edge lnL and internal
// partials are Serial's, bit for bit, in both precisions.
func TestCompactStoreGathersTips(t *testing.T) {
	n := engine.None
	cases := []struct {
		name     string
		patterns int
		batches  [][]engine.Operation
	}{
		{"tip beside partials", 128, [][]engine.Operation{
			{op(4, 0, 3, n, n), op(5, 3, 1, n, n), op(6, 4, 5, n, n)}}},
		{"cherry under 100 patterns", 99, [][]engine.Operation{
			{op(4, 0, 1, n, n), op(5, 2, 3, n, n), op(6, 4, 5, n, n)}}},
		{"cherry reading a scale buffer", 128, [][]engine.Operation{
			{op(4, 0, 1, 0, n), op(5, 1, 2, n, 0), op(6, 4, 5, n, n)}}},
		{"cherry after a full-width operation on its destination", 128, [][]engine.Operation{
			{op(4, 0, 1, n, n), op(5, 2, 3, n, n), op(6, 4, 5, n, n)},
			{op(5, 4, 3, n, n), op(4, 0, 2, n, n), op(6, 4, 5, n, n)}}},
	}
	mats := hkyMatrices(t, 8)
	for _, tc := range cases {
		for _, single := range []bool{false, true} {
			c := newScaleCase(4, single, mats...)
			c.cfg.Dims.PatternCount = tc.patterns
			want := c.evaluate(t, Serial, tc.batches)
			for _, mode := range Modes()[1:] {
				got := c.evaluate(t, mode, tc.batches)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %v single=%v: value %d is %v, Serial %v", tc.name, mode, single, i, got[i], want[i])
					}
				}
				for i, ops := range tc.batches {
					if k := c.statesOperands(t, mode, tc.batches[:i], ops); k != 0 {
						t.Errorf("%s, %v single=%v: batch %d binds %d compact-state operations", tc.name, mode, single, i, k)
					}
				}
			}
		}
	}
}

// open is a fresh engine of mode with the case's tips and matrices, the
// model the integrations need and the batches before run.
func (c scaleCase) open(t *testing.T, mode Mode, before [][]engine.Operation) engine.Engine {
	t.Helper()
	e, err := New(c.cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	c.load(t, e)
	m, rates := hkyModel(t)
	weights := make([]float64, c.cfg.Dims.PatternCount)
	for i := range weights {
		weights[i] = 1
	}
	for _, err := range []error{e.SetCategoryWeights(rates.Weights), e.SetStateFrequencies(m.Frequencies), e.SetPatternWeights(weights)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ops := range before {
		if err := e.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// evaluate runs the batches on mode and returns the root lnL at buffer 6,
// the edge lnL from 6 to 4, then every internal partials buffer.
func (c scaleCase) evaluate(t *testing.T, mode Mode, batches [][]engine.Operation) []float64 {
	t.Helper()
	e := c.open(t, mode, batches)
	defer e.Close()
	root, err := e.CalculateRootLogLikelihoods(6, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := e.CalculateEdgeLogLikelihoods(6, 4, 4, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64{root, edge}, c.state(t, e)...)
}

// statesOperands resolves ops on mode's store after the batches before, with
// Storage.Resolve itself, and counts the operations it binds with a
// compact-state operand.
func (c scaleCase) statesOperands(t *testing.T, mode Mode, before [][]engine.Operation, ops []engine.Operation) int {
	t.Helper()
	e := c.open(t, mode, before)
	defer e.Close()
	switch e := e.(type) {
	case *Engine[float64]:
		return countStatesOperands(t, e.Storage, ops)
	case *Engine[float32]:
		return countStatesOperands(t, e.Storage, ops)
	}
	t.Fatalf("%v is not a cpuimpl engine", mode)
	return 0
}

func countStatesOperands[T kernels.Real](t *testing.T, st *engine.Storage[T], ops []engine.Operation) int {
	t.Helper()
	rops, err := st.Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for _, r := range rops {
		if r.S1 != nil || r.S2 != nil {
			k++
		}
	}
	return k
}
