package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerPoolRunsEveryIndexOnce: each phase runs every index of [0, n)
// exactly once, on a valid worker, with the phase's n, and returns only when
// all have finished — also when a phase has more tasks than workers and when
// phases follow each other with different task counts.
func TestWorkerPoolRunsEveryIndexOnce(t *testing.T) {
	const workers = 3
	p := NewWorkerPool(workers, "pool test")
	defer p.Close()
	for round := 0; round < 50; round++ {
		for _, n := range []int{1, 2, workers, 2*workers + 1} {
			hits := make([]int32, n)
			var bad atomic.Int32
			p.Run(n, func(i, got, worker int) {
				if got != n || worker < 0 || worker >= workers {
					bad.Add(1)
				}
				atomic.AddInt32(&hits[i], 1)
			})
			if bad.Load() != 0 {
				t.Fatalf("n=%d: %d tasks saw a wrong n or worker index", n, bad.Load())
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d: index %d ran %d times before Run returned", n, i, h)
				}
			}
		}
	}
}

// TestWorkerPoolRunDoesNotAllocate is the runtime half of Run's
// //beagle:noalloc contract: a phase with a task bound beforehand allocates
// nothing.
func TestWorkerPoolRunDoesNotAllocate(t *testing.T) {
	p := NewWorkerPool(2, "pool test")
	defer p.Close()
	var sum atomic.Int64
	task := func(i, _, _ int) { sum.Add(int64(i)) }
	if allocs := testing.AllocsPerRun(100, func() { p.Run(2, task) }); allocs != 0 {
		t.Fatalf("Run allocates %.1f times per phase, want 0", allocs)
	}
}

// TestWorkerPoolCloseStopsWorkers: Close stops every worker. The count is
// compared only from above: workers of pools closed by earlier tests may
// still be exiting when start is taken.
func TestWorkerPoolCloseStopsWorkers(t *testing.T) {
	start := runtime.NumGoroutine()
	p := NewWorkerPool(4, "pool test")
	p.Run(4, func(int, int, int) {})
	p.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), start)
		}
	}
}
