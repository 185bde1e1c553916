package remoteimpl

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/trace"
	"gobeagle/internal/tree"
)

// problem builds a small deterministic likelihood problem.
func problem(t testing.TB, seed int64, tips, sites int) (*tree.Tree, *substmodel.Model, *substmodel.SiteRates, *seqgen.PatternSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tips, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	m, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, sites)
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, rates, seqgen.CompressPatterns(align)
}

func testConfig(tr *tree.Tree, patterns int) engine.Config {
	return engine.Config{
		TipCount:        tr.TipCount,
		PartialsBuffers: tr.NodeCount(),
		MatrixBuffers:   tr.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    tr.NodeCount() + 1,
		Dims:            kernels.Dims{StateCount: 4, PatternCount: patterns, CategoryCount: 2},
	}
}

// evaluate drives a complete tree likelihood through any engine.
func evaluate(t testing.TB, e engine.Engine, tr *tree.Tree, m *substmodel.Model,
	rates *substmodel.SiteRates, ps *seqgen.PatternSet) float64 {
	t.Helper()
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		e.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		e.SetCategoryRates(rates.Rates),
		e.SetCategoryWeights(rates.Weights),
		e.SetStateFrequencies(m.Frequencies),
		e.SetPatternWeights(ps.Weights),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tr.TipCount; i++ {
		if err := e.SetTipStates(i, ps.TipStates(i)); err != nil {
			t.Fatal(err)
		}
	}
	sched := tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := e.UpdateTransitionMatrices(0, mats, lens); err != nil {
		t.Fatal(err)
	}
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	if err := e.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	lnL, err := e.CalculateRootLogLikelihoods(sched.Root, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	return lnL
}

// evaluateScaled drives the tree through evaluate, then again with a
// rescale on every operation (DestScaleWrite i for operation i), sums those
// buffers into a cumulative one and returns the root lnL with it, and the
// cumulative buffer's index.
func evaluateScaled(t testing.TB, e engine.Engine, tr *tree.Tree, m *substmodel.Model,
	rates *substmodel.SiteRates, ps *seqgen.PatternSet) (lnL float64, cum int) {
	t.Helper()
	evaluate(t, e, tr, m, rates, ps)
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
	cum = len(sched.Ops)
	if err := e.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	if err := e.ResetScaleFactors(cum); err != nil {
		t.Fatal(err)
	}
	if err := e.AccumulateScaleFactors(bufs, cum); err != nil {
		t.Fatal(err)
	}
	lnL, err := e.CalculateRootLogLikelihoods(sched.Root, cum)
	if err != nil {
		t.Fatal(err)
	}
	return lnL, cum
}

// startWorker boots an in-process worker on loopback. The returned stop
// function kills it and waits for Serve to return; it is safe to call twice.
func startWorker(t *testing.T) (addr string, w *Worker, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err = NewWorker(WorkerOptions{
		Builder: func(g Geometry, tr *trace.Tracer) (engine.Engine, error) {
			cfg := g.Config()
			cfg.Trace = tr
			return cpuimpl.New(cfg, cpuimpl.Serial)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Serve(ctx, ln)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), w, stop
}

// proxy is a byte-forwarding TCP relay whose connections can be killed to
// simulate a network partition without killing the worker.
type proxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func newProxy(t *testing.T, target string) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(p.close)
	return p
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		d, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			d.Close()
			return
		}
		p.conns = append(p.conns, c, d)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			io.Copy(d, c)
			d.Close()
			c.Close()
		}()
		go func() {
			defer p.wg.Done()
			io.Copy(c, d)
			c.Close()
			d.Close()
		}()
	}
}

// killConns severs every live relayed connection.
func (p *proxy) killConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *proxy) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.killConns()
	p.wg.Wait()
}

func TestRemoteMatchesLocalBitIdentical(t *testing.T) {
	tr, m, rates, ps := problem(t, 1, 8, 400)
	cfg := testConfig(tr, ps.PatternCount())

	local, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	wantLnL := evaluate(t, local, tr, m, rates, ps)
	wantSites, err := local.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}

	addr, _, _ := startWorker(t)
	remote, err := New(cfg, Options{Addr: addr, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	gotLnL := evaluate(t, remote, tr, m, rates, ps)
	if gotLnL != wantLnL {
		t.Fatalf("remote lnL %v, local %v (must be bit-identical)", gotLnL, wantLnL)
	}
	gotSites, err := remote.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Fatalf("site %d: remote %v local %v", i, gotSites[i], wantSites[i])
		}
	}
	st := remote.Stats()
	if st.RPCs == 0 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
	if st.FailedOver || st.Retries != 0 {
		t.Fatalf("clean run recorded failures: %+v", st)
	}
}

func TestRemoteMigrationRoundTrip(t *testing.T) {
	tr, m, rates, ps := problem(t, 2, 6, 300)
	cfg := testConfig(tr, ps.PatternCount())

	local, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	evaluate(t, local, tr, m, rates, ps)
	want, err := local.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}

	addr, _, _ := startWorker(t)
	remote, err := New(cfg, Options{Addr: addr, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	evaluate(t, remote, tr, m, rates, ps)

	// A block detached over the wire and re-attached must restore state
	// exactly (this pins gob's nil-vs-empty slice handling for PatternBlock).
	blk, err := remote.DetachPatterns(true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Patterns != 7 {
		t.Fatalf("detached %d patterns, want 7", blk.Patterns)
	}
	if err := remote.AttachPatterns(true, blk); err != nil {
		t.Fatal(err)
	}
	got, err := remote.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pattern count %d after round trip, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("site %d after migration round trip: %v want %v", i, got[i], want[i])
		}
	}
}

func TestRemoteReadRetriesAcrossConnectionLoss(t *testing.T) {
	tr, m, rates, ps := problem(t, 3, 6, 200)
	cfg := testConfig(tr, ps.PatternCount())

	local, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	evaluate(t, local, tr, m, rates, ps)
	want, err := local.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}

	addr, w, _ := startWorker(t)
	px := newProxy(t, addr)
	remote, err := New(cfg, Options{
		Addr: px.addr(), HealthInterval: -1, RetryBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	evaluate(t, remote, tr, m, rates, ps)

	// Sever the connection: the worker survives, so the next idempotent read
	// must redial, resume the session and succeed with identical values.
	px.killConns()
	got, err := remote.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("site %d after reconnect: %v want %v", i, got[i], want[i])
		}
	}
	st := remote.Stats()
	if st.Redials == 0 {
		t.Fatalf("expected at least one redial, stats %+v", st)
	}
	if st.FailedOver {
		t.Fatalf("connection loss with a live worker must not fail over: %+v", st)
	}
	if n := w.SessionCount(); n != 1 {
		t.Fatalf("worker has %d sessions after resume, want 1", n)
	}
}

func TestRemoteFailoverReplaysJournal(t *testing.T) {
	tr, m, rates, ps := problem(t, 4, 8, 250)
	cfg := testConfig(tr, ps.PatternCount())

	local, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	wantLnL := evaluate(t, local, tr, m, rates, ps)
	wantSites, err := local.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}

	addr, _, stop := startWorker(t)
	remote, err := New(cfg, Options{
		Addr: addr, HealthInterval: -1,
		RetryBackoff: 2 * time.Millisecond, DialTimeout: 500 * time.Millisecond,
		Fallback: func(c engine.Config) (engine.Engine, error) {
			return cpuimpl.New(c, cpuimpl.Serial)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	evaluate(t, remote, tr, m, rates, ps)

	// Kill the worker process outright. The next call cannot be satisfied
	// remotely; the client must rebuild locally from its journal and produce
	// bit-identical results.
	stop()
	gotSites, err := remote.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Fatalf("site %d after failover: %v want %v", i, gotSites[i], wantSites[i])
		}
	}
	gotLnL, err := remote.CalculateRootLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if gotLnL != wantLnL {
		t.Fatalf("root lnL after failover %v, want %v", gotLnL, wantLnL)
	}
	st := remote.Stats()
	if !st.FailedOver || st.Failovers != 1 {
		t.Fatalf("expected exactly one failover, stats %+v", st)
	}
}

// TestRemoteFailoverReplaysScaledJournal is TestRemoteFailoverReplaysJournal
// with rescaling on every operation and a cumulative scale buffer: the
// journal replay must rebuild the scale buffers as well as the partials, so
// that the site and root lnL after failover are a local Serial engine's bits.
func TestRemoteFailoverReplaysScaledJournal(t *testing.T) {
	tr, m, rates, ps := problem(t, 4, 24, 250)
	cfg := testConfig(tr, ps.PatternCount())

	local, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	wantLnL, cum := evaluateScaled(t, local, tr, m, rates, ps)
	wantSites, err := local.SiteLogLikelihoods(tr.Root.Index, cum)
	if err != nil {
		t.Fatal(err)
	}
	unscaled, err := local.SiteLogLikelihoods(tr.Root.Index, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if unscaled[0] == wantSites[0] {
		t.Fatalf("site 0 reads %v with and without the cumulative scale buffer: the problem no longer rescales", unscaled[0])
	}

	addr, _, stop := startWorker(t)
	remote, err := New(cfg, Options{
		Addr: addr, HealthInterval: -1,
		RetryBackoff: 2 * time.Millisecond, DialTimeout: 500 * time.Millisecond,
		Fallback: func(c engine.Config) (engine.Engine, error) {
			return cpuimpl.New(c, cpuimpl.Serial)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	evaluateScaled(t, remote, tr, m, rates, ps)

	stop()
	gotSites, err := remote.SiteLogLikelihoods(tr.Root.Index, cum)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Fatalf("site %d after failover: %v want %v", i, gotSites[i], wantSites[i])
		}
	}
	gotLnL, err := remote.CalculateRootLogLikelihoods(tr.Root.Index, cum)
	if err != nil {
		t.Fatal(err)
	}
	if gotLnL != wantLnL {
		t.Fatalf("root lnL after failover %v, want %v", gotLnL, wantLnL)
	}
	if st := remote.Stats(); !st.FailedOver || st.Failovers != 1 {
		t.Fatalf("expected exactly one failover, stats %+v", st)
	}
}

func TestRemoteMutationFailureFailsOverImmediately(t *testing.T) {
	tr, m, rates, ps := problem(t, 5, 6, 150)
	cfg := testConfig(tr, ps.PatternCount())

	local, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	wantLnL := evaluate(t, local, tr, m, rates, ps)

	addr, _, stop := startWorker(t)
	remote, err := New(cfg, Options{
		Addr: addr, HealthInterval: -1,
		RetryBackoff: 2 * time.Millisecond, DialTimeout: 500 * time.Millisecond,
		Fallback: func(c engine.Config) (engine.Engine, error) {
			return cpuimpl.New(c, cpuimpl.Serial)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Set up everything except the final UpdatePartials, then kill the
	// worker so the mutating call itself hits the dead connection.
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		remote.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		remote.SetCategoryRates(rates.Rates),
		remote.SetCategoryWeights(rates.Weights),
		remote.SetStateFrequencies(m.Frequencies),
		remote.SetPatternWeights(ps.Weights),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tr.TipCount; i++ {
		if err := remote.SetTipStates(i, ps.TipStates(i)); err != nil {
			t.Fatal(err)
		}
	}
	sched := tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := remote.UpdateTransitionMatrices(0, mats, lens); err != nil {
		t.Fatal(err)
	}
	stop()
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	if err := remote.UpdatePartials(ops); err != nil {
		t.Fatal(err)
	}
	gotLnL, err := remote.CalculateRootLogLikelihoods(sched.Root, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if gotLnL != wantLnL {
		t.Fatalf("root lnL after mid-batch failover %v, want %v", gotLnL, wantLnL)
	}
	if !remote.FailedOver() {
		t.Fatal("client did not fail over")
	}
}

func TestRemoteNoFallbackSurfacesError(t *testing.T) {
	tr, _, _, _ := problem(t, 6, 4, 50)
	cfg := testConfig(tr, 50)
	addr, _, stop := startWorker(t)
	remote, err := New(cfg, Options{
		Addr: addr, HealthInterval: -1,
		RetryBackoff: 1 * time.Millisecond, DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	stop()
	if err := remote.SetCategoryRates([]float64{1, 1}); err == nil {
		t.Fatal("dead worker without fallback must surface an error")
	}
}

func TestProbeIsStateless(t *testing.T) {
	addr, w, _ := startWorker(t)
	info, err := Probe(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != protocolVersion || info.Cores < 1 {
		t.Fatalf("probe reply %+v", info)
	}
	if info.Resumed {
		t.Fatal("probe must not resume anything")
	}
	if n := w.SessionCount(); n != 0 {
		t.Fatalf("probe created %d sessions", n)
	}
}

func TestWorkerApplicationErrorsCrossTheWire(t *testing.T) {
	tr, _, _, _ := problem(t, 7, 4, 50)
	cfg := testConfig(tr, 50)
	addr, _, _ := startWorker(t)
	remote, err := New(cfg, Options{Addr: addr, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// Out-of-range buffer: an engine-level error, not a transport failure.
	if err := remote.SetTipStates(10_000, []int{0}); err == nil {
		t.Fatal("invalid buffer index must error")
	}
	st := remote.Stats()
	if st.Retries != 0 || st.FailedOver {
		t.Fatalf("application error must not trigger transport recovery: %+v", st)
	}
}

func TestCloneRequestIsDeep(t *testing.T) {
	blk := &engine.PatternBlock{
		Patterns:  2,
		TipStates: [][]int32{{1, 2}, nil},
		Partials:  [][]float64{nil, {0.5, 0.25}},
		Weights:   []float64{1, 3},
		Scale:     [][]float64{{0, 0}},
	}
	req := &request{
		Op: opAttach, Ints: []int{1, 2}, Floats: []float64{1.5}, Block: blk,
		Ops: []engine.Operation{{Dest: 9}},
	}
	c := cloneRequest(req)
	req.Ints[0] = 99
	req.Floats[0] = 99
	req.Ops[0].Dest = 99
	blk.TipStates[0][0] = 99
	blk.Partials[1][0] = 99
	blk.Weights[0] = 99
	if c.Ints[0] != 1 || c.Floats[0] != 1.5 || c.Ops[0].Dest != 9 {
		t.Fatal("clone shares slice memory with the original")
	}
	if c.Block.TipStates[0][0] != 1 || c.Block.Partials[1][0] != 0.5 || c.Block.Weights[0] != 1 {
		t.Fatal("clone shares block memory with the original")
	}
	if c.Block.TipStates[1] != nil || c.Block.Partials[0] != nil {
		t.Fatal("clone must preserve nil-ness of unoccupied buffers")
	}
}

func TestMutatesClassification(t *testing.T) {
	muts := map[opCode]bool{
		opSetTipStates: true, opSetTipPartials: true, opSetPartials: true,
		opSetEigen: true, opSetCategoryRates: true, opSetCategoryWeights: true,
		opSetStateFrequencies: true, opSetPatternWeights: true,
		opSetTransitionMatrix: true, opUpdateMatrices: true,
		opUpdatePartials: true, opResetScale: true, opAccumulateScale: true,
		opUpdateDerivs: true, opDetach: true, opAttach: true,
	}
	for op := opHello; op <= opAttach; op++ {
		if got, want := op.mutates(), muts[op]; got != want {
			t.Fatalf("%v.mutates() = %v, want %v", op, got, want)
		}
	}
}
