package multiimpl

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
)

// TestPartitionProperty drives the partition helper with random pattern
// counts, backend counts and heavily skewed shares: the result must always
// be contiguous, non-empty slices exactly covering [0, PatternCount).
func TestPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(8)
		p := n + rng.Intn(500)
		shares := make([]float64, n)
		for i := range shares {
			// Skew across ~9 orders of magnitude, the worst realistic case
			// being a 1/32-DP-ratio GPU against a full-rate one.
			shares[i] = rng.Float64() * pow10(rng.Intn(9))
			if shares[i] <= 0 {
				shares[i] = 1e-9
			}
		}
		lo, hi := partition(p, shares)
		if len(lo) != n || len(hi) != n {
			t.Fatalf("iter %d: %d ranges for %d backends", iter, len(lo), n)
		}
		if lo[0] != 0 {
			t.Fatalf("iter %d: first slice starts at %d", iter, lo[0])
		}
		if hi[n-1] != p {
			t.Fatalf("iter %d: last slice ends at %d, want %d", iter, hi[n-1], p)
		}
		for i := 0; i < n; i++ {
			if hi[i] <= lo[i] {
				t.Fatalf("iter %d: empty slice %d: [%d,%d) of p=%d shares=%v", iter, i, lo[i], hi[i], p, shares)
			}
			if i > 0 && lo[i] != hi[i-1] {
				t.Fatalf("iter %d: gap between slice %d and %d: %v %v", iter, i-1, i, lo, hi)
			}
		}
	}
}

func pow10(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 10
	}
	return out
}

// slowEngine wraps a real engine and sleeps a deterministic per-pattern-op
// delay in UpdatePartials, simulating a backend with known throughput. It
// forwards pattern migration to the wrapped engine and tracks its own
// pattern count across migrations.
type slowEngine struct {
	engine.Engine
	patterns int
	perOp    time.Duration
}

func slowBuilder(perOp time.Duration) Builder {
	return func(sub engine.Config) (engine.Engine, error) {
		e, err := cpuimpl.New(sub, cpuimpl.Serial)
		if err != nil {
			return nil, err
		}
		return &slowEngine{Engine: e, patterns: sub.Dims.PatternCount, perOp: perOp}, nil
	}
}

func (s *slowEngine) UpdatePartials(ops []engine.Operation) error {
	time.Sleep(time.Duration(s.patterns*len(ops)) * s.perOp)
	return s.Engine.UpdatePartials(ops)
}

func (s *slowEngine) DetachPatterns(fromHigh bool, n int) (*engine.PatternBlock, error) {
	blk, err := s.Engine.(engine.PatternMigrator).DetachPatterns(fromHigh, n)
	if err == nil {
		s.patterns -= n
	}
	return blk, err
}

func (s *slowEngine) AttachPatterns(atHigh bool, blk *engine.PatternBlock) error {
	err := s.Engine.(engine.PatternMigrator).AttachPatterns(atHigh, blk)
	if err == nil {
		s.patterns += blk.Patterns
	}
	return err
}

// minBatchWall measures the fastest of k UpdatePartials batches — the
// minimum filters scheduler noise from the deterministic sleep floor.
func minBatchWall(t *testing.T, e engine.Engine, ops []engine.Operation, k int) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := e.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// TestRebalanceConverges is the acceptance scenario: two fake backends, one
// deterministically 4× slower, starting from an even split. Within 10
// batches the rebalancer must have repartitioned, the measured batch wall
// time must come within 15% of an oracle static 4:1 split, and the results
// must stay bit-identical to a single-backend engine.
func TestRebalanceConverges(t *testing.T) {
	tr, m, rates, ps := problem(t, 10, 8, 200)
	cfg := multiConfig(tr, ps.PatternCount())
	const unit = 5 * time.Microsecond

	single, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	evaluate(t, single, tr, m, rates, ps)
	wantSite, err := single.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}

	// Even initial split (shares 1:1) with the fast backend first.
	builders := []Builder{slowBuilder(unit), slowBuilder(4 * unit)}
	multi, err := NewBalanced(cfg, builders, []float64{1, 1},
		Options{Rebalance: true, Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	evaluate(t, multi, tr, m, rates, ps) // batch 1

	sched := tr.FullSchedule()
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	for b := 0; b < 9; b++ { // batches 2..10
		if err := multi.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
	}

	stats, enabled := multi.RebalanceStats()
	if !enabled {
		t.Fatal("rebalancing not enabled")
	}
	if stats.Rebalances == 0 {
		t.Fatal("no rebalance within 10 batches")
	}
	lo, hi := multi.Ranges()
	if span0, span1 := hi[0]-lo[0], hi[1]-lo[1]; span0 <= 2*span1 {
		t.Fatalf("split %d:%d has not moved toward the 4:1 oracle (events %+v)",
			span0, span1, stats.Events)
	}

	// Results after migration stay bit-identical to the single engine.
	gotSite, err := multi.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSite {
		if gotSite[i] != wantSite[i] {
			t.Fatalf("site %d log likelihood %v differs from single engine %v after rebalance",
				i, gotSite[i], wantSite[i])
		}
	}

	// Oracle: the same fake backends statically split 4:1.
	oracle, err := New(cfg, []Builder{slowBuilder(unit), slowBuilder(4 * unit)}, []float64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	evaluate(t, oracle, tr, m, rates, ps)

	converged := minBatchWall(t, multi, ops, 5)
	oracleWall := minBatchWall(t, oracle, ops, 5)
	if limit := oracleWall + oracleWall*15/100; converged > limit {
		t.Fatalf("converged batch wall %v exceeds oracle %v by more than 15%%", converged, oracleWall)
	}
}

// TestRebalanceKeepsScaleBuffers is TestRebalanceConverges with a rescale
// on every operation and a cumulative scale buffer. Each batch rewrites the
// operations' scale buffers; the cumulative buffer is summed after a batch.
// A migration moves patterns at the end of a batch, so the first root lnL
// after it reads a cumulative buffer summed before the move, and a second
// reads one summed from the moved operation buffers: both must be a single
// engine's bits.
func TestRebalanceKeepsScaleBuffers(t *testing.T) {
	tr, m, rates, ps := problem(t, 10, 24, 200)
	cfg := multiConfig(tr, ps.PatternCount())
	const unit = 2 * time.Microsecond

	sched := tr.FullSchedule()
	ops := make([]engine.Operation, len(sched.Ops))
	bufs := make([]int, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: i, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
		bufs[i] = i
	}
	cum := len(sched.Ops)
	accumulate := func(e engine.Engine) {
		t.Helper()
		if err := e.ResetScaleFactors(cum); err != nil {
			t.Fatal(err)
		}
		if err := e.AccumulateScaleFactors(bufs, cum); err != nil {
			t.Fatal(err)
		}
	}
	rootLnL := func(e engine.Engine) float64 {
		t.Helper()
		lnL, err := e.CalculateRootLogLikelihoods(sched.Root, cum)
		if err != nil {
			t.Fatal(err)
		}
		return lnL
	}

	single, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	unscaled := evaluate(t, single, tr, m, rates, ps)
	if err := single.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	accumulate(single)
	want := rootLnL(single)
	if want == unscaled {
		t.Fatalf("root lnL %v with and without rescaling: the problem no longer rescales", want)
	}

	multi, err := NewBalanced(cfg, []Builder{slowBuilder(unit), slowBuilder(4 * unit)}, []float64{1, 1},
		Options{Rebalance: true, Interval: 3}) // batch 1 is evaluate's, 2 the first scaled one
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	evaluate(t, multi, tr, m, rates, ps)
	lo0, hi0 := multi.Ranges()
	for b := 0; ; b++ {
		if b == 20 {
			t.Fatal("no rebalance within 20 scaled batches")
		}
		if err := multi.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
		if stats, _ := multi.RebalanceStats(); stats.Rebalances > 0 {
			if b == 0 {
				t.Fatal("rebalanced on the first scaled batch, before a cumulative buffer was summed")
			}
			break
		}
		accumulate(multi)
	}
	if lo, hi := multi.Ranges(); lo[1] == lo0[1] && hi[0] == hi0[0] {
		t.Fatalf("a rebalance was counted but the boundary stayed at %d", hi[0])
	}
	if got := rootLnL(multi); got != want {
		t.Fatalf("root lnL from the cumulative buffer summed before the migration %v, single engine %v", got, want)
	}
	accumulate(multi)
	if got := rootLnL(multi); got != want {
		t.Fatalf("root lnL from the operation buffers moved by the migration %v, single engine %v", got, want)
	}
}

// TestRebalanceDisabledStatic pins the opt-in contract: without rebalancing
// the partition never moves and no rebalance telemetry is reported.
func TestRebalanceDisabledStatic(t *testing.T) {
	tr, m, rates, ps := problem(t, 11, 6, 150)
	cfg := multiConfig(tr, ps.PatternCount())
	multi, err := New(cfg, []Builder{slowBuilder(time.Microsecond), slowBuilder(8 * time.Microsecond)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	evaluate(t, multi, tr, m, rates, ps)
	lo0, hi0 := multi.Ranges()

	sched := tr.FullSchedule()
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	for b := 0; b < 12; b++ {
		if err := multi.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
	}
	lo1, hi1 := multi.Ranges()
	for i := range lo0 {
		if lo0[i] != lo1[i] || hi0[i] != hi1[i] {
			t.Fatalf("partition moved without FlagRebalance: %v %v -> %v %v", lo0, hi0, lo1, hi1)
		}
	}
	if _, enabled := multi.RebalanceStats(); enabled {
		t.Fatal("rebalance telemetry reported on a static engine")
	}
}

// TestRebalanceConcurrentBatches drives UpdatePartials batches from several
// goroutines through rebalances while another goroutine polls telemetry;
// run with -race this checks the engine's internal serialization.
func TestRebalanceConcurrentBatches(t *testing.T) {
	tr, m, rates, ps := problem(t, 12, 6, 120)
	cfg := multiConfig(tr, ps.PatternCount())
	multi, err := NewBalanced(cfg,
		[]Builder{slowBuilder(time.Microsecond), slowBuilder(4 * time.Microsecond)},
		nil, Options{Rebalance: true, Interval: 1, Threshold: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	evaluate(t, multi, tr, m, rates, ps)

	sched := tr.FullSchedule()
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 8; b++ {
				if err := multi.UpdatePartials(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			multi.RebalanceStats()
			multi.Ranges()
			if _, err := multi.SiteLogLikelihoods(tr.Root.Index, engine.None); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The computation must still be exact after concurrent rebalances.
	single, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	evaluate(t, single, tr, m, rates, ps)
	want, err := single.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	got, err := multi.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("site %d diverged after concurrent rebalances", i)
		}
	}
}

// TestRebalanceRequiresMigrators pins the constructor check: a backend
// without pattern migration must be rejected when rebalancing is requested.
func TestRebalanceRequiresMigrators(t *testing.T) {
	tr, _, _, _ := problem(t, 13, 4, 60)
	cfg := multiConfig(tr, 40)
	rigid := func(sub engine.Config) (engine.Engine, error) {
		e, err := cpuimpl.New(sub, cpuimpl.Serial)
		if err != nil {
			return nil, err
		}
		return &noMigrateEngine{e}, nil
	}
	if _, err := NewBalanced(cfg, []Builder{cpuBuilder(cpuimpl.Serial), rigid}, nil,
		Options{Rebalance: true}); err == nil {
		t.Fatal("backend without PatternMigrator must be rejected")
	}
	// Without rebalancing the same backends are fine.
	multi, err := NewBalanced(cfg, []Builder{cpuBuilder(cpuimpl.Serial), rigid}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi.Close()
}

// noMigrateEngine hides the wrapped engine's promoted migration methods.
type noMigrateEngine struct{ inner engine.Engine }

func (n *noMigrateEngine) Name() string { return n.inner.Name() }
func (n *noMigrateEngine) SetTipStates(buf int, states []int) error {
	return n.inner.SetTipStates(buf, states)
}
func (n *noMigrateEngine) SetTipPartials(buf int, partials []float64) error {
	return n.inner.SetTipPartials(buf, partials)
}
func (n *noMigrateEngine) SetPartials(buf int, partials []float64) error {
	return n.inner.SetPartials(buf, partials)
}
func (n *noMigrateEngine) GetPartials(buf int) ([]float64, error) { return n.inner.GetPartials(buf) }
func (n *noMigrateEngine) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	return n.inner.SetEigenDecomposition(slot, values, vectors, inverseVectors)
}
func (n *noMigrateEngine) SetCategoryRates(rates []float64) error {
	return n.inner.SetCategoryRates(rates)
}
func (n *noMigrateEngine) SetCategoryWeights(weights []float64) error {
	return n.inner.SetCategoryWeights(weights)
}
func (n *noMigrateEngine) SetStateFrequencies(freqs []float64) error {
	return n.inner.SetStateFrequencies(freqs)
}
func (n *noMigrateEngine) SetPatternWeights(weights []float64) error {
	return n.inner.SetPatternWeights(weights)
}
func (n *noMigrateEngine) SetTransitionMatrix(matrix int, values []float64) error {
	return n.inner.SetTransitionMatrix(matrix, values)
}
func (n *noMigrateEngine) GetTransitionMatrix(matrix int) ([]float64, error) {
	return n.inner.GetTransitionMatrix(matrix)
}
func (n *noMigrateEngine) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	return n.inner.UpdateTransitionMatrices(eigenSlot, matrices, edgeLengths)
}
func (n *noMigrateEngine) UpdatePartials(ops []engine.Operation) error {
	return n.inner.UpdatePartials(ops)
}
func (n *noMigrateEngine) ResetScaleFactors(scaleBuf int) error {
	return n.inner.ResetScaleFactors(scaleBuf)
}
func (n *noMigrateEngine) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	return n.inner.AccumulateScaleFactors(scaleBufs, cumBuf)
}
func (n *noMigrateEngine) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	return n.inner.CalculateRootLogLikelihoods(rootBuf, cumScaleBuf)
}
func (n *noMigrateEngine) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	return n.inner.CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf)
}
func (n *noMigrateEngine) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	return n.inner.UpdateTransitionDerivatives(eigenSlot, d1Matrices, d2Matrices, edgeLengths)
}
func (n *noMigrateEngine) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	return n.inner.CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf)
}
func (n *noMigrateEngine) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	return n.inner.SiteLogLikelihoods(rootBuf, cumScaleBuf)
}
func (n *noMigrateEngine) Close() error { return n.inner.Close() }

// failEngine fails Close and UpdatePartials with its own distinct error.
type failEngine struct {
	engine.Engine
	err error
}

func (f *failEngine) Close() error                                { return f.err }
func (f *failEngine) UpdatePartials(ops []engine.Operation) error { return f.err }

// TestCloseJoinsErrors pins the errors.Join bugfix: every backend's Close
// failure must be visible in the joined error, not just the first.
func TestCloseJoinsErrors(t *testing.T) {
	tr, _, _, _ := problem(t, 14, 4, 60)
	cfg := multiConfig(tr, 40)
	err1 := errors.New("backend 0 close failure")
	err2 := errors.New("backend 1 close failure")
	failing := func(e error) Builder {
		return func(sub engine.Config) (engine.Engine, error) {
			inner, err := cpuimpl.New(sub, cpuimpl.Serial)
			if err != nil {
				return nil, err
			}
			return &failEngine{Engine: inner, err: e}, nil
		}
	}
	multi, err := New(cfg, []Builder{failing(err1), failing(err2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// parallel joins too: both backends fail UpdatePartials.
	uerr := multi.UpdatePartials(nil)
	if !errors.Is(uerr, err1) || !errors.Is(uerr, err2) {
		t.Fatalf("UpdatePartials error %v does not join both backend errors", uerr)
	}
	cerr := multi.Close()
	if !errors.Is(cerr, err1) || !errors.Is(cerr, err2) {
		t.Fatalf("Close error %v does not join both backend errors", cerr)
	}
}

// TestObserveDoesNotAllocate is the runtime allocguard for the rebalancer's
// hot-path bookkeeping.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := newRebalancer(3, Options{})
	if n := testing.AllocsPerRun(200, func() {
		r.Observe(0, 128, 0.001)
		r.Observe(1, 128, 0.004)
		r.Observe(2, 0, 0) // guarded no-op path
	}); n != 0 {
		t.Fatalf("Observe allocates %v per run", n)
	}
}
