package multiimpl

import (
	"slices"
	"testing"
	"time"

	"gobeagle/internal/engine"
)

// linkedEngine is a slowEngine that also reports a fixed link bandwidth,
// standing in for a remote backend in hierarchy tests.
type linkedEngine struct {
	*slowEngine
	bw float64
}

func (l *linkedEngine) LinkBandwidth() float64 { return l.bw }

func linkedBuilder(perOp time.Duration, bw float64) Builder {
	inner := slowBuilder(perOp)
	return func(sub engine.Config) (engine.Engine, error) {
		e, err := inner(sub)
		if err != nil {
			return nil, err
		}
		return &linkedEngine{slowEngine: e.(*slowEngine), bw: bw}, nil
	}
}

// TestRootBitIdenticalToSingle pins the deterministic root reduction: the
// multi-device root must equal the single-engine root EXACTLY (not within a
// tolerance), whatever the partition, because the site-gather reduction
// reproduces the single-node kernel's term order.
func TestRootBitIdenticalToSingle(t *testing.T) {
	tr, m, rates, ps := problem(t, 20, 8, 300)
	cfg := multiConfig(tr, ps.PatternCount())
	single, err := cpuBuilder(0)(cfg) // cpuimpl.Serial
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := evaluate(t, single, tr, m, rates, ps)

	for _, shares := range [][]float64{nil, {1, 1}, {3, 1}, {1, 2, 5}} {
		builders := make([]Builder, 2)
		if len(shares) == 3 {
			builders = make([]Builder, 3)
		}
		for i := range builders {
			builders[i] = cpuBuilder(0)
		}
		multi, err := New(cfg, builders, shares)
		if err != nil {
			t.Fatal(err)
		}
		got := evaluate(t, multi, tr, m, rates, ps)
		multi.Close()
		if got != want {
			t.Fatalf("shares %v: multi root %v differs from single root %v (must be bit-identical)",
				shares, got, want)
		}
	}
}

// TestHierarchyBlocksUnpayableCrossNodeMoves pins the cost gate: with one
// backend per node and a link so slow a migration could never amortize, the
// imbalance must be tolerated — the intra-node tier has nothing to move and
// the cross-node tier refuses to pay.
func TestHierarchyBlocksUnpayableCrossNodeMoves(t *testing.T) {
	tr, _, _, ps := problem(t, 21, 6, 200)
	cfg := multiConfig(tr, ps.PatternCount())
	const unit = 2 * time.Microsecond
	multi, err := NewBalanced(cfg,
		[]Builder{linkedBuilder(unit, 1), linkedBuilder(4*unit, 1)}, // 1 byte/sec: absurdly slow link
		nil,
		Options{Rebalance: true, Interval: 2, Nodes: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()

	_, m, rates, _ := problem(t, 21, 6, 200)
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
	loBefore, hiBefore := multi.Ranges()
	for b := 0; b < 12; b++ {
		if err := multi.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := multi.RebalanceStats()
	if stats.Rebalances != 0 || stats.CrossNodeRebalances != 0 {
		t.Fatalf("unpayable cross-node move executed anyway: %+v", stats)
	}
	loAfter, hiAfter := multi.Ranges()
	for i := range loBefore {
		if loBefore[i] != loAfter[i] || hiBefore[i] != hiAfter[i] {
			t.Fatalf("partition moved from %v/%v to %v/%v despite the cost gate",
				loBefore, hiBefore, loAfter, hiAfter)
		}
	}
}

// TestHierarchyCrossNodeMovesWhenWorthIt is the complementary case: a fast
// link makes the same imbalance worth fixing, the global target is adopted,
// the event is marked cross-node, and results stay bit-identical to a
// single engine.
func TestHierarchyCrossNodeMovesWhenWorthIt(t *testing.T) {
	tr, m, rates, ps := problem(t, 22, 8, 200)
	cfg := multiConfig(tr, ps.PatternCount())
	const unit = 5 * time.Microsecond

	single, err := cpuBuilder(0)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	wantRoot := evaluate(t, single, tr, m, rates, ps)
	wantSite, err := single.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}

	multi, err := NewBalanced(cfg,
		[]Builder{linkedBuilder(unit, 1e12), linkedBuilder(4*unit, 1e12)},
		nil,
		Options{Rebalance: true, Interval: 2, Nodes: []int{0, 1}})
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
	for b := 0; b < 12; b++ {
		if err := multi.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := multi.RebalanceStats()
	if stats.CrossNodeRebalances == 0 {
		t.Fatalf("fast link, 4x imbalance: expected a cross-node rebalance, stats %+v", stats)
	}
	var sawCross bool
	for _, ev := range stats.Events {
		if ev.CrossNode {
			sawCross = true
			if ev.CostSeconds < 0 {
				t.Fatalf("negative migration cost in event %+v", ev)
			}
		}
	}
	if !sawCross {
		t.Fatal("no event marked CrossNode")
	}
	lo, hi := multi.Ranges()
	if span0, span1 := hi[0]-lo[0], hi[1]-lo[1]; span0 <= span1 {
		t.Fatalf("split %d:%d has not moved toward the fast backend", span0, span1)
	}

	gotSite, err := multi.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSite {
		if gotSite[i] != wantSite[i] {
			t.Fatalf("site %d differs from single engine after cross-node migration", i)
		}
	}
	gotRoot, err := multi.CalculateRootLogLikelihoods(sched.Root, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if gotRoot != wantRoot {
		t.Fatalf("root %v differs from single %v after cross-node migration", gotRoot, wantRoot)
	}
}

// TestHierarchyIntraNodeTier pins the cheap tier: an imbalance entirely
// inside one node rebalances without any cross-node event, and the node
// boundary itself stays put.
func TestHierarchyIntraNodeTier(t *testing.T) {
	tr, m, rates, ps := problem(t, 23, 8, 240)
	cfg := multiConfig(tr, ps.PatternCount())
	const unit = 5 * time.Microsecond

	// Node 0: fast and slow device (total rate 3+... in 1/unit terms);
	// node 1: two equal devices whose combined throughput matches node 0's,
	// so the global target leaves the node boundary (nearly) unmoved and the
	// imbalance is intra-node by construction. The 1 byte/sec link slams the
	// cross-node gate shut so only the intra tier can act.
	multi, err := NewBalanced(cfg,
		[]Builder{
			linkedBuilder(unit, 1), linkedBuilder(3*unit, 1),
			linkedBuilder(unit+unit/2, 1), linkedBuilder(unit+unit/2, 1),
		},
		nil,
		Options{Rebalance: true, Interval: 2, Nodes: []int{0, 0, 1, 1}})
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
	_, hiBefore := multi.Ranges()
	for b := 0; b < 12; b++ {
		if err := multi.UpdatePartials(ops); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := multi.RebalanceStats()
	if stats.Rebalances == 0 {
		t.Fatalf("intra-node imbalance never rebalanced: %+v", stats)
	}
	if stats.CrossNodeRebalances != 0 {
		t.Fatalf("intra-node imbalance triggered cross-node moves: %+v", stats)
	}
	_, hiAfter := multi.Ranges()
	if hiBefore[1] != hiAfter[1] {
		t.Fatalf("node boundary moved from %d to %d under intra-node-only rebalancing",
			hiBefore[1], hiAfter[1])
	}
	if span0, span1 := hiAfter[0], hiAfter[1]-hiAfter[0]; span0 <= span1 {
		t.Fatalf("node 0 split %d:%d has not moved toward its fast device", span0, span1)
	}
}

// TestHierarchyRoundingMoveIsNotCrossNode: when the global target keeps
// every node boundary where it is and only rounds the spans inside the nodes
// better than the intra-node target, it is an on-host move. It is adopted
// without a cost gate and never counted or reported as cross-node, however
// slow the links. The throughput estimates are set directly, so the decision
// is deterministic.
func TestHierarchyRoundingMoveIsNotCrossNode(t *testing.T) {
	tr, _, _, _ := problem(t, 21, 6, 200)
	cfg := multiConfig(tr, 133)
	builders := make([]Builder, 4)
	for i := range builders {
		builders[i] = linkedBuilder(0, 1) // 1 byte/sec: no cross-node move could pay
	}
	multi, err := NewBalanced(cfg, builders, []float64{35, 32, 38, 28},
		Options{Rebalance: true, Interval: 1, Nodes: []int{0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	if _, hi := multi.Ranges(); !slices.Equal(hi, []int{35, 67, 105, 133}) {
		t.Fatalf("initial boundaries %v", hi)
	}

	// Both nodes have the same total throughput, so the global target keeps
	// boundary 67: intra-node [26 67 108 133], global [25 67 108 133].
	multi.mu.Lock()
	for i, rate := range []float64{0.8, 1.3, 1.3, 0.8} {
		multi.reb.Observe(i, 1, 1/rate)
	}
	multi.reb.noteBatch(5)
	err = multi.maybeRebalance()
	multi.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	stats, _ := multi.RebalanceStats()
	if stats.Rebalances != 1 || len(stats.Events) != 1 {
		t.Fatalf("want one rebalance, got %+v", stats)
	}
	ev := stats.Events[0]
	if stats.CrossNodeRebalances != 0 || ev.CrossNode || ev.CostSeconds != 0 {
		t.Errorf("a move that keeps node boundary 67 was reported cross-node: %+v", ev)
	}
	if want := []int{25, 67, 108, 133}; !slices.Equal(ev.NewHi, want) || !slices.Equal(stats.Hi, want) {
		t.Errorf("adopted boundaries %v (event %v), want the better-rounded %v", stats.Hi, ev.NewHi, want)
	}
}

func TestValidateNodes(t *testing.T) {
	tr, _, _, _ := problem(t, 24, 4, 50)
	cfg := multiConfig(tr, 40)
	builders := []Builder{slowBuilder(time.Microsecond), slowBuilder(time.Microsecond)}
	cases := [][]int{
		{0},       // wrong length
		{0, -1},   // negative id
		{1, 0},    // decreasing
		{0, 1, 1}, // wrong length (too long)
	}
	for _, nodes := range cases {
		if _, err := NewBalanced(cfg, builders, nil, Options{Rebalance: true, Nodes: nodes}); err == nil {
			t.Fatalf("nodes %v accepted", nodes)
		}
	}
	ok, err := NewBalanced(cfg, builders, nil, Options{Rebalance: true, Nodes: []int{0, 2}})
	if err != nil {
		t.Fatalf("nodes with gaps must be accepted: %v", err)
	}
	ok.Close()
}
