package serve

import (
	"sort"
	"testing"
	"time"
)

// TestQueuedJobsRunAsOneBatch pins the batching policy deterministically:
// jobs that queued while the executor was busy (here: before it starts) run
// as one merged batch, capped at MaxBatch with the remainder in the next.
func TestQueuedJobsRunAsOneBatch(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.MaxBatch = 4 })
	direct := newTestServer(t, func(o *Options) { o.DisablePool = true })

	const n = 10
	jobs := make([]*job, n)
	var calc *Calculator
	for i := range jobs {
		c, err := s.compile(testRequest(6, 40, int64(i), true))
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		if calc == nil {
			calc = newCalculator(c.key, s.opts, nil)
		}
		jobs[i] = &job{c: c, enq: time.Now(), done: make(chan struct{})}
		if err := calc.submit(jobs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	go calc.run()
	defer calc.wait()
	defer calc.close()

	for i, j := range jobs {
		<-j.done
		if j.err != nil {
			t.Fatalf("job %d: %v", i, j.err)
		}
		want := 4 // jobs 0-3 and 4-7 fill a batch each; 8 and 9 share the last
		if i >= 8 {
			want = 2
		}
		if j.resp.Pool.Batched != want {
			t.Errorf("job %d ran in a batch of %d, want %d", i, j.resp.Pool.Batched, want)
		}
		if ref := evaluate(t, direct, testRequest(6, 40, int64(i), true)); j.resp.LogLikelihood != ref.LogLikelihood {
			t.Errorf("job %d: batched lnL %v, dedicated %v", i, j.resp.LogLikelihood, ref.LogLikelihood)
		}
	}
	if got := calc.batches.Load(); got != 3 {
		t.Errorf("executor ran %d batches, want 3", got)
	}
}

// TestIdleExecutorDoesNotHoldRequests: with nothing to merge, a request's
// queue wait is the goroutine hand-off, far below the 2 ms floor the old
// batch window imposed. The median keeps one host stall from failing it.
func TestIdleExecutorDoesNotHoldRequests(t *testing.T) {
	s := newTestServer(t, nil)
	req := testRequest(8, 64, 3, true)
	evaluate(t, s, req) // builds the instance
	waits := make([]int64, 50)
	for i := range waits {
		resp := evaluate(t, s, req)
		if resp.Pool.Batched != 1 {
			t.Fatalf("sequential request %d ran in a batch of %d", i, resp.Pool.Batched)
		}
		waits[i] = resp.Pool.WaitMicros
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if median := waits[len(waits)/2]; median >= 500 {
		t.Errorf("median queue wait on an idle server = %d µs, want < 500", median)
	}
}
