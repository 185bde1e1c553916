package device

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gobeagle/internal/trace"
)

// Cost describes the useful work of one kernel launch for the performance
// model: effective floating-point operations and global-memory traffic.
type Cost struct {
	Flops float64
	Bytes float64
	// Efficiency scales the device's peak rate for this kernel build;
	// e.g. the no-FMA kernel variant on FMA hardware runs below peak
	// (Table IV). Zero means 1.
	Efficiency float64
	// GroupSize is the work-group size, used to charge per-group scheduling
	// overhead. Zero charges per work-item (conservative).
	GroupSize int
}

// Launch is the execution geometry of a kernel: total work-items and
// work-group size. The global size is padded up to a multiple of the group
// size, as both CUDA and OpenCL require. The performance model charges the
// padded items; they are never executed, so a kernel body sees no index
// ≥ Global.
type Launch struct {
	Global int // useful work-items
	Local  int // work-group size in work-items
}

// Executor runs t(i, n, worker) for every i in [0, n) on its workers and
// returns when all have finished, one call at a time; engine.WorkerPool is
// the one in use.
type Executor interface {
	Run(n int, t func(i, n, worker int))
}

// Queue is an in-order command queue on one device. It accumulates both
// measured host wall time and modeled device time for everything enqueued.
type Queue struct {
	dev          *Device
	exec         Executor // runs work-groups; nil runs them inline
	single       bool     // single-precision kernels
	dryRun       atomic.Bool
	modeledNanos atomic.Int64
	hostNanos    atomic.Int64
	launches     atomic.Int64
	transfers    atomic.Int64
	bytesMoved   atomic.Int64
	tr           *trace.Tracer
	lane         int32
}

// SetTracer attaches a span tracer. Kernel and transfer spans are stamped on
// the queue's modeled device clock (which starts at zero), not host wall
// time, so the trace shows what the performance model charged each launch —
// the device process in the exported timeline is labeled accordingly.
func (q *Queue) SetTracer(tr *trace.Tracer, lane int32) {
	q.tr = tr
	q.lane = lane
}

// SetExecutor sets the executor the queue's launches run their work-groups
// on; nil runs them inline on the launching goroutine.
func (q *Queue) SetExecutor(x Executor) { q.exec = x }

// SetDryRun toggles dry-run mode: kernel launches charge the modeled clock
// without executing their bodies. Benchmark sweeps use this for very large
// problem sizes after the identical configuration has been executed and
// verified for real at smaller sizes; it must never be enabled when results
// will be read back.
func (q *Queue) SetDryRun(v bool) { q.dryRun.Store(v) }

// NewQueue creates a command queue; single selects the floating-point format
// assumed by the performance model.
func (d *Device) NewQueue(single bool) *Queue {
	return &Queue{dev: d, single: single}
}

// Device returns the queue's device.
func (q *Queue) Device() *Device { return q.dev }

// ModeledTime returns the accumulated modeled device time.
func (q *Queue) ModeledTime() time.Duration {
	return time.Duration(q.modeledNanos.Load())
}

// HostTime returns the accumulated measured host execution time.
func (q *Queue) HostTime() time.Duration {
	return time.Duration(q.hostNanos.Load())
}

// Launches returns the number of kernels launched.
func (q *Queue) Launches() int64 { return q.launches.Load() }

// BytesTransferred returns total host↔device copy traffic.
func (q *Queue) BytesTransferred() int64 { return q.bytesMoved.Load() }

// ResetTimers zeroes the accumulated timing counters.
func (q *Queue) ResetTimers() {
	q.modeledNanos.Store(0)
	q.hostNanos.Store(0)
	q.launches.Store(0)
	q.transfers.Store(0)
	q.bytesMoved.Store(0)
}

// LaunchKernel runs body once per work-group over the group's work-items
// [lo, hi): group g covers [g·Local, (g+1)·Local) clipped to l.Global, so the
// ranges partition [0, Global). With an executor the groups run concurrently
// on up to Parallelism of its workers. The launch is charged to both clocks,
// the modeled one for the padded global size.
func (q *Queue) LaunchKernel(l Launch, c Cost, body func(lo, hi int)) error {
	if l.Global <= 0 {
		return errors.New("device: launch with non-positive global size")
	}
	if l.Local <= 0 {
		return fmt.Errorf("device: launch with non-positive work-group size %d", l.Local)
	}
	groups := (l.Global + l.Local - 1) / l.Local
	padded := groups * l.Local

	if !q.dryRun.Load() {
		start := time.Now()
		q.run(groups, func(g int) {
			body(g*l.Local, min((g+1)*l.Local, l.Global))
		})
		q.hostNanos.Add(int64(time.Since(start)))
	}
	charge := int64(q.modelKernel(c, padded, l.Global))
	end := q.modeledNanos.Add(charge)
	q.launches.Add(1)
	if q.tr.Enabled() {
		q.tr.Record(trace.Span{Kind: trace.KindKernel, Lane: q.lane,
			Start: end - charge, Dur: charge, Arg0: int64(l.Global), Arg1: int64(groups)})
	}
	return nil
}

// run calls group(g) for every g in [0, groups): inline without an executor
// or with one group, otherwise on up to Parallelism workers that each pull
// group indices from a shared counter until none is left.
func (q *Queue) run(groups int, group func(g int)) {
	workers := min(q.dev.parallelism, groups)
	if q.exec == nil || workers <= 1 {
		for g := range groups {
			group(g)
		}
		return
	}
	var next atomic.Int64
	q.exec.Run(workers, func(_, _, _ int) {
		for g := int(next.Add(1) - 1); g < groups; g = int(next.Add(1) - 1) {
			group(g)
		}
	})
}

// CopyToDevice moves host data into a device buffer.
func CopyToDevice[T Elem](q *Queue, dst *Buffer[T], src []T) error {
	if dst.data == nil {
		return errors.New("device: copy to freed buffer")
	}
	if len(src) > len(dst.data) {
		return fmt.Errorf("device: copy of %d elements into buffer of %d", len(src), len(dst.data))
	}
	start := time.Now()
	copy(dst.data, src)
	q.hostNanos.Add(int64(time.Since(start)))
	var zero T
	q.ChargeTransfer(int64(len(src)) * int64(elemSize(zero)))
	return nil
}

// CopyFromDevice moves device data back to the host.
func CopyFromDevice[T Elem](q *Queue, dst []T, src *Buffer[T]) error {
	if src.data == nil {
		return errors.New("device: copy from freed buffer")
	}
	if len(dst) > len(src.data) {
		return fmt.Errorf("device: copy of %d elements from buffer of %d", len(dst), len(src.data))
	}
	start := time.Now()
	copy(dst, src.data)
	q.hostNanos.Add(int64(time.Since(start)))
	var zero T
	q.ChargeTransfer(int64(len(dst)) * int64(elemSize(zero)))
	return nil
}

// ChargeTransfer charges one host↔device copy of the given size to the
// transfer counters and the modeled clock. The buffer copy calls charge
// through it; an engine whose data crosses the boundary without a Buffer
// charges the crossing here directly.
func (q *Queue) ChargeTransfer(bytes int64) {
	q.bytesMoved.Add(bytes)
	q.transfers.Add(1)
	charge := int64(q.modelTransfer(float64(bytes)))
	end := q.modeledNanos.Add(charge)
	if q.tr.Enabled() {
		q.tr.Record(trace.Span{Kind: trace.KindTransfer, Lane: q.lane,
			Start: end - charge, Dur: charge, Arg0: bytes})
	}
}
