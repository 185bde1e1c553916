package engine

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// Task is one unit of a phase: index i of n, running on the given worker
// (the pool worker's index; i on a fresh goroutine; 0 inline).
type Task = func(i, n, worker int)

// WorkerPool is a fixed set of persistent worker goroutines — the C++
// thread-pool of §VI-C — and the one executor of every engine that runs work
// concurrently: the CPU pool modes' phases and an accelerator's work-groups.
// A phase publishes its task in a field and sends only task indices over the
// channel, so running one allocates nothing.
type WorkerPool struct {
	idx     chan int
	task    Task // the running phase's task, written by Run before any send
	n       int
	barrier sync.WaitGroup // the running phase's tasks
	done    sync.WaitGroup // the workers, for Close
}

// NewWorkerPool starts the workers. Each worker goroutine carries pprof
// labels (implementation name and worker index) so CPU profiles attribute
// kernel time to the owning pool instead of an anonymous goroutine.
func NewWorkerPool(workers int, impl string) *WorkerPool {
	// A phase has at most one task per worker, so its sends never block.
	p := &WorkerPool{idx: make(chan int, workers)}
	p.done.Add(workers)
	for w := 0; w < workers; w++ {
		labels := pprof.Labels("beagle_impl", impl, "beagle_worker", strconv.Itoa(w))
		go pprof.Do(context.Background(), labels, func(context.Context) {
			defer p.done.Done()
			for i := range p.idx {
				p.task(i, p.n, w)
				p.barrier.Done()
			}
		})
	}
	return p
}

// Run executes t(i, n, worker) for every i in [0, n) on the workers and
// returns when all have finished. The writes to task and n precede the first
// send, so every worker reads them after its receive; the next run cannot
// overwrite them before this one's barrier. One phase runs at a time, as an
// engine runs one call at a time.
//
//beagle:noalloc
func (p *WorkerPool) Run(n int, t Task) {
	p.task, p.n = t, n
	p.barrier.Add(n)
	for i := 0; i < n; i++ {
		p.idx <- i
	}
	p.barrier.Wait()
}

// Close stops the workers.
func (p *WorkerPool) Close() {
	close(p.idx)
	p.done.Wait()
}
