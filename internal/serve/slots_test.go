package serve

import (
	"slices"
	"testing"
	"time"
)

// runJobs runs reqs as one batch on calc's executor-owned path and returns
// the finished jobs. The test goroutine stands in for the executor, so no
// batch can split.
func runJobs(t *testing.T, calc *Calculator, reqs []*compiled) []*job {
	t.Helper()
	jobs := make([]*job, len(reqs))
	for i, c := range reqs {
		jobs[i] = &job{c: c, enq: time.Now(), done: make(chan struct{})}
	}
	calc.runBatch(jobs)
	for _, j := range jobs {
		<-j.done
	}
	return jobs
}

// compileN compiles n distinct 6-tip requests of one pool key.
func compileN(t *testing.T, s *Server, n int, seed int64) []*compiled {
	t.Helper()
	out := make([]*compiled, n)
	for i := range out {
		c, err := s.compile(testRequest(6, 40, seed+int64(i), true))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// newTestCalculator builds a calculator for key whose instance the test
// finalizes; its executor is never started.
func newTestCalculator(t *testing.T, s *Server, key PoolKey) *Calculator {
	t.Helper()
	calc := newCalculator(key, s.opts, nil)
	t.Cleanup(calc.drain)
	return calc
}

// TestSlotsAreBatchPositions: a batch of n jobs runs in slots 0…n−1 whatever
// ran before it, every answer carrying the dedicated instance's bits.
func TestSlotsAreBatchPositions(t *testing.T) {
	s := newTestServer(t, nil)
	direct := newTestServer(t, func(o *Options) { o.DisablePool = true })
	seed := int64(0)
	var calc *Calculator
	for _, n := range []int{3, 1, 4, 2, 6} {
		reqs := compileN(t, s, n, seed)
		if calc == nil {
			calc = newTestCalculator(t, s, reqs[0].key)
		}
		for i, j := range runJobs(t, calc, reqs) {
			if j.err != nil {
				t.Fatalf("batch of %d, job %d: %v", n, i, j.err)
			}
			if j.resp.Pool.Slot != i {
				t.Errorf("batch of %d: job %d ran in slot %d, want %d", n, i, j.resp.Pool.Slot, i)
			}
			if ref := evaluate(t, direct, testRequest(6, 40, seed+int64(i), true)); j.resp.LogLikelihood != ref.LogLikelihood {
				t.Errorf("batch of %d, job %d: lnL %v, dedicated %v", n, i, j.resp.LogLikelihood, ref.LogLikelihood)
			}
		}
		seed += int64(n)
	}
}

// TestSlotGoldenRatioGrowth: the slot capacity grows by the golden ratio (at
// least one slot a step, several steps for one large batch) only when a
// batch exceeds it, with one grow and one rebuild per outgrown batch.
func TestSlotGoldenRatioGrowth(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.InitialSlots = 1 })
	var calc *Calculator
	var grows uint64
	for _, step := range []struct{ n, capacity int }{
		{1, 1}, {2, 2}, {3, 3}, {1, 3}, {4, 4}, {5, 6}, {6, 6}, {2, 6}, {7, 9}, {3, 9}, {15, 22},
	} {
		reqs := compileN(t, s, step.n, 0)
		if calc == nil {
			calc = newTestCalculator(t, s, reqs[0].key)
		}
		before := calc.slotCap.Load()
		for i, j := range runJobs(t, calc, reqs) {
			if j.err != nil {
				t.Fatalf("batch of %d, job %d: %v", step.n, i, j.err)
			}
		}
		if got := calc.slotCap.Load(); got != int64(step.capacity) {
			t.Errorf("after a batch of %d from capacity %d: capacity %d, want %d", step.n, before, got, step.capacity)
		}
		if int64(step.n) > before {
			grows++
		}
		if got := calc.grows.Load(); got != grows {
			t.Errorf("after a batch of %d: %d grows, want %d", step.n, got, grows)
		}
		if got := calc.rebuilds.Load(); got != grows+1 {
			t.Errorf("after a batch of %d: %d rebuilds, want %d (the first build and one per grow)", step.n, got, grows+1)
		}
	}
}

// TestFailedMergeLeavesCalculatorServing: a batch whose merged submission
// fails (here a compiled request whose first operation reads the last
// operation's destination: every slot load succeeds, the merge is refused)
// holds no slot afterwards. After more such batches than the calculator has
// slots, a valid request is still answered with the dedicated bits.
func TestFailedMergeLeavesCalculatorServing(t *testing.T) {
	s := newTestServer(t, nil)
	direct := newTestServer(t, func(o *Options) { o.DisablePool = true })
	good := compileN(t, s, 1, 7)[0]
	bad := *compileN(t, s, 1, 8)[0]
	sched := *bad.sched
	sched.Ops = slices.Clone(sched.Ops)
	sched.Ops[0].Child1 = sched.Ops[len(sched.Ops)-1].Dest
	bad.sched = &sched

	calc := newTestCalculator(t, s, good.key)
	for i := 0; i <= s.opts.InitialSlots; i++ {
		if j := runJobs(t, calc, []*compiled{&bad})[0]; j.err == nil {
			t.Fatalf("failing batch %d: merged submission with a forward read succeeded", i)
		}
	}
	j := runJobs(t, calc, []*compiled{good})[0]
	if j.err != nil {
		t.Fatalf("valid request after %d failed merges: %v", s.opts.InitialSlots+1, j.err)
	}
	if ref := evaluate(t, direct, testRequest(6, 40, 7, true)); j.resp.LogLikelihood != ref.LogLikelihood {
		t.Errorf("lnL %v after failed merges, dedicated %v", j.resp.LogLikelihood, ref.LogLikelihood)
	}
	if j.resp.Pool.Slot != 0 {
		t.Errorf("a lone request ran in slot %d, want 0", j.resp.Pool.Slot)
	}
}
