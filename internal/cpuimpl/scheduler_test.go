package cpuimpl

// Regression tests for the dependency analyzer and the threaded plans:
// aliased-buffer operation batches that race (and miscompute) when opLevels
// tracks only read-after-write hazards, plus use-after-Close behaviour.
// These batches reuse destination buffers the way proposal-rejection cycles
// in MCMC samplers do, so they must execute with serial semantics under
// every threading strategy.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/engine"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// levelsOf runs opLevels over bare (unresolved) operations: the dependency
// analysis reads only the buffer indices.
func levelsOf(ops []engine.Operation) [][]engine.Operation {
	rops := make([]engine.ResolvedOp[float64], len(ops))
	for i, op := range ops {
		rops[i].Operation = op
	}
	var out [][]engine.Operation
	for _, level := range opLevels(rops) {
		var l []engine.Operation
		for _, r := range level {
			l = append(l, r.Operation)
		}
		out = append(out, l)
	}
	return out
}

// levelOf returns the level index opLevels assigned to the operation with
// the given destination, requiring it to appear exactly once.
func levelOf(t *testing.T, levels [][]engine.Operation, dest int) int {
	t.Helper()
	found := -1
	for l, level := range levels {
		for _, op := range level {
			if op.Dest == dest {
				if found >= 0 {
					t.Fatalf("dest %d appears in levels %d and %d", dest, found, l)
				}
				found = l
			}
		}
	}
	if found < 0 {
		t.Fatalf("dest %d not assigned to any level", dest)
	}
	return found
}

func TestOpLevelsHazards(t *testing.T) {
	op := func(dest, c1, c2, scaleWrite int) engine.Operation {
		return engine.Operation{
			Dest: dest, DestScaleWrite: scaleWrite, DestScaleRead: engine.None,
			Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2,
		}
	}

	t.Run("raw", func(t *testing.T) {
		levels := levelsOf([]engine.Operation{
			op(4, 0, 1, engine.None),
			op(5, 4, 2, engine.None), // reads 4 → after its writer
			op(6, 2, 3, engine.None), // independent → level 0
		})
		if got := levelOf(t, levels, 4); got != 0 {
			t.Errorf("writer of 4 at level %d, want 0", got)
		}
		if got := levelOf(t, levels, 5); got != 1 {
			t.Errorf("RAW reader at level %d, want 1", got)
		}
		if got := levelOf(t, levels, 6); got != 0 {
			t.Errorf("independent op at level %d, want 0", got)
		}
	})

	t.Run("waw-and-war", func(t *testing.T) {
		levels := levelsOf([]engine.Operation{
			op(4, 0, 1, engine.None), // writes 4
			op(5, 4, 2, engine.None), // reads 4
			op(4, 2, 3, engine.None), // rewrites 4: WAW with op 0, WAR with op 1
		})
		if got := levelOf(t, levels, 5); got != 1 {
			t.Fatalf("reader at level %d, want 1", got)
		}
		// The rewrite has tip children only; a RAW-only analyzer puts it at
		// level 0, racing with both the first write and the read.
		rewrite := -1
		for l, level := range levels {
			for _, o := range level {
				if o.Dest == 4 && o.Child1 == 2 {
					rewrite = l
				}
			}
		}
		if rewrite != 2 {
			t.Errorf("rewrite of 4 at level %d, want 2 (after its reader)", rewrite)
		}
	})

	t.Run("war-without-waw", func(t *testing.T) {
		levels := levelsOf([]engine.Operation{
			op(5, 4, 2, engine.None), // reads 4 (never written in this batch)
			op(4, 2, 3, engine.None), // overwrites 4: pure WAR
		})
		if got := levelOf(t, levels, 5); got != 0 {
			t.Fatalf("reader at level %d, want 0", got)
		}
		if got := levelOf(t, levels, 4); got != 1 {
			t.Errorf("overwriter at level %d, want 1 (WAR hazard)", got)
		}
	})

	t.Run("scale-waw", func(t *testing.T) {
		levels := levelsOf([]engine.Operation{
			op(4, 0, 1, 0), // rescales into scale buffer 0
			op(5, 2, 3, 0), // different dest, same scale buffer: WAW
		})
		if got := levelOf(t, levels, 4); got != 0 {
			t.Fatalf("first scaler at level %d, want 0", got)
		}
		if got := levelOf(t, levels, 5); got != 1 {
			t.Errorf("second scaler at level %d, want 1 (shared DestScaleWrite)", got)
		}
	})

	t.Run("scale-buffers-are-not-partials", func(t *testing.T) {
		// Scale buffer 5 must not alias partials buffer 5: distinct spaces.
		levels := levelsOf([]engine.Operation{
			op(4, 0, 1, 5),           // writes scale buffer 5
			op(5, 2, 3, engine.None), // writes partials buffer 5
		})
		if got := levelOf(t, levels, 5); got != 0 {
			t.Errorf("partials-5 writer at level %d, want 0 (no cross-space hazard)", got)
		}
	})

	t.Run("levels-partition-ops", func(t *testing.T) {
		ops := []engine.Operation{
			op(4, 0, 1, engine.None),
			op(5, 4, 2, engine.None),
			op(4, 2, 3, engine.None),
			op(6, 4, 5, engine.None),
		}
		total := 0
		for _, level := range levelsOf(ops) {
			total += len(level)
		}
		if total != len(ops) {
			t.Fatalf("levels hold %d ops, want %d", total, len(ops))
		}
	})
}

// aliasedEngine builds an engine of the given mode over a 4-tip geometry and
// runs an aliased operation batch: buffer 4 is written, read, rewritten and
// read again, and two operations rescale into the same scale buffer.
func aliasedEngine(t *testing.T, tr *tree.Tree, mode Mode, patterns int) engine.Engine {
	t.Helper()
	cfg := testConfig(tr, 4, patterns, 2, false)
	e, err := New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runAliasedBatch loads deterministic tips/matrices, executes the hazard-rich
// batch, and returns the final contents of every written partials buffer.
func runAliasedBatch(t *testing.T, e engine.Engine, tr *tree.Tree, patterns int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	const cats = 2
	for i := 0; i < tr.TipCount; i++ {
		p := make([]float64, patterns*4)
		for j := range p {
			p[j] = 0.05 + rng.Float64()
		}
		if err := e.SetTipPartials(i, p); err != nil {
			t.Fatal(err)
		}
	}
	mrng := rand.New(rand.NewSource(7))
	for m := 0; m < tr.NodeCount(); m++ {
		mat := make([]float64, cats*16)
		for r := 0; r < cats*4; r++ {
			var sum float64
			row := mat[r*4 : r*4+4]
			for c := range row {
				row[c] = 0.1 + mrng.Float64()
				sum += row[c]
			}
			for c := range row {
				row[c] /= sum
			}
		}
		if err := e.SetTransitionMatrix(m, mat); err != nil {
			t.Fatal(err)
		}
	}
	op := func(dest, c1, c2, scaleWrite int) engine.Operation {
		return engine.Operation{
			Dest: dest, DestScaleWrite: scaleWrite, DestScaleRead: engine.None,
			Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2,
		}
	}
	// The batch: RAW (op2 reads 4), WAW+WAR (op3 rewrites 4 after op2's
	// read), a second RAW chain into 6, and a shared scale buffer between
	// the two rescaling operations.
	ops := []engine.Operation{
		op(4, 0, 1, 0),
		op(5, 4, 2, 0), // same DestScaleWrite as op1
		op(4, 2, 3, engine.None),
		op(6, 4, 5, engine.None),
	}
	if err := e.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	for _, buf := range []int{4, 5, 6} {
		p, err := e.GetPartials(buf)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestAliasedBatchesMatchSerial is the regression test for the RAW-only
// dependency analyzer: under `go test -race` the seed code races on the
// rewritten buffer and the shared scale buffer in Futures mode, and the
// results diverge from serial execution. Every strategy must produce
// bitwise-identical partials (the kernels are deterministic per pattern).
func TestAliasedBatchesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := tree.Random(rng, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const patterns = 96 // below DefaultMinPatterns: exercises hybrid slabs
	ref := aliasedEngine(t, tr, Serial, patterns)
	want := runAliasedBatch(t, ref, tr, patterns)
	ref.Close()
	for _, mode := range []Mode{Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid} {
		for rep := 0; rep < 5; rep++ { // repeated runs make races likely to fire
			e := aliasedEngine(t, tr, mode, patterns)
			got := runAliasedBatch(t, e, tr, patterns)
			e.Close()
			for b := range want {
				for i := range want[b] {
					if want[b][i] != got[b][i] {
						t.Fatalf("%v rep %d: buffer %d diverges from serial at %d: %v != %v",
							mode, rep, []int{4, 5, 6}[b], i, got[b][i], want[b][i])
					}
				}
			}
		}
	}
}

// TestHybridMatchesSerialOnRandomTrees drives full rescaled tree schedules
// through every threaded plan across pattern counts spanning the slab
// regimes: 1 and 3 patterns cut into 4 slabs leave slabs with no patterns,
// and 600 crosses DefaultMinPatterns. Each plan must reproduce SSE, which
// binds the same kernels, bit for bit.
func TestHybridMatchesSerialOnRandomTrees(t *testing.T) {
	for _, patterns := range []int{1, 3, 37, 128, 600} {
		rng := rand.New(rand.NewSource(int64(patterns)))
		tr, err := tree.Random(rng, 16, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := seqgen.RandomPatterns(rng, tr.TipCount, 4, patterns)
		if err != nil {
			t.Fatal(err)
		}
		m := substmodel.NewJC69()
		rates := substmodel.SingleRate()
		eval := func(mode Mode) float64 {
			e, err := New(testConfig(tr, 4, patterns, 1, false), mode)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			return driveEngine(t, e, tr, m, rates, ps, true, true)
		}
		want, sse := eval(Serial), eval(SSE)
		for _, mode := range []Mode{Futures, ThreadCreate, ThreadPool, ThreadPoolHybrid} {
			got := eval(mode)
			if got != sse {
				t.Errorf("patterns=%d: %v lnL %v, SSE %v", patterns, mode, got, sse)
			}
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Errorf("patterns=%d: %v lnL %v, serial %v", patterns, mode, got, want)
			}
		}
	}
}

// TestUseAfterClose is the regression test for the nil-pool crash: Close must
// be idempotent and computation after Close must fail with ErrClosed instead
// of panicking on the torn-down worker pool.
func TestUseAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := tree.Random(rng, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes() {
		e, err := New(testConfig(tr, 4, 40, 1, false), mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%v: first Close: %v", mode, err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%v: second Close not idempotent: %v", mode, err)
		}
		err = e.UpdatePartials([]engine.Operation{{
			Dest: 4, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: 0, Child1Mat: 0, Child2: 1, Child2Mat: 1,
		}})
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%v: UpdatePartials after Close = %v, want ErrClosed", mode, err)
		}
		if _, err := e.CalculateRootLogLikelihoods(0, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: CalculateRootLogLikelihoods after Close = %v, want ErrClosed", mode, err)
		}
		if _, err := e.SiteLogLikelihoods(0, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: SiteLogLikelihoods after Close = %v, want ErrClosed", mode, err)
		}
		if _, err := e.CalculateEdgeLogLikelihoods(0, 1, 0, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: CalculateEdgeLogLikelihoods after Close = %v, want ErrClosed", mode, err)
		}
		if _, _, _, err := e.CalculateEdgeDerivatives(0, 1, 0, 1, engine.None, engine.None); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: CalculateEdgeDerivatives after Close = %v, want ErrClosed", mode, err)
		}
	}
}
