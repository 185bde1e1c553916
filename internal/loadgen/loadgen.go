// Package loadgen is a closed-loop load generator for the serving layer: N
// concurrent workers each issue requests back-to-back against a target
// function (an HTTP client or an in-process Server), and the run reports
// throughput and the latency distribution (p50/p95/p99). It is used by
// cmd/beagleload, and deliberately knows nothing about HTTP or phylogenetics
// — callers inject the request function. (The measured serving benchmark,
// bench/mark's serve_http workload, carries its own open-loop generator.)
package loadgen

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Result classifies one completed request.
type Result struct {
	// Latency is the request's wall time.
	Latency time.Duration
	// Code is the caller-defined status (HTTP status for wire clients);
	// 0 is treated as success by convention.
	Code int
	// Err is non-nil when the request failed before producing a status.
	Err error
}

// RequestFunc issues one request. worker and seq identify the issuing worker
// and its per-worker sequence number, letting callers vary request content
// deterministically across the run.
type RequestFunc func(ctx context.Context, worker, seq int) Result

// Options configures a run.
type Options struct {
	// Concurrency is the number of closed-loop workers.
	Concurrency int
	// Requests is the total request budget across all workers; the run ends
	// when it is exhausted (or the context is cancelled).
	Requests int
	// WarmupRequests are issued and discarded before measurement begins,
	// letting the target's pool warm up and the JIT-ish layers settle.
	WarmupRequests int
}

// Report summarizes a run.
type Report struct {
	// Requests is the number of measured requests completed.
	Requests int `json:"requests"`
	// Errors counts requests whose Err was non-nil.
	Errors int `json:"errors"`
	// Codes histograms the non-error status codes.
	Codes map[int]int `json:"codes,omitempty"`
	// Elapsed is the measured-phase wall time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// RPS is Requests / Elapsed.
	RPS float64 `json:"rps"`
	// P50, P95 and P99 are latency percentiles over measured requests;
	// Mean and Max complete the picture.
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	Mean time.Duration `json:"mean_ns"`
	Max  time.Duration `json:"max_ns"`
}

// Run drives the target with a closed loop per worker until the request
// budget is spent. Workers share the budget through a channel, so stragglers
// do not skew the request mix.
func Run(ctx context.Context, opts Options, fn RequestFunc) Report {
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.Requests < 1 {
		opts.Requests = 1
	}

	// Warmup: spread across workers, results discarded.
	if opts.WarmupRequests > 0 {
		runPhase(ctx, opts.Concurrency, opts.WarmupRequests, fn, nil)
	}

	latencies := make([]time.Duration, 0, opts.Requests)
	rep := Report{Codes: map[int]int{}}
	var mu sync.Mutex
	record := func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Err != nil {
			rep.Errors++
			return
		}
		rep.Codes[r.Code]++
		latencies = append(latencies, r.Latency)
	}

	start := time.Now()
	runPhase(ctx, opts.Concurrency, opts.Requests, fn, record)
	rep.Elapsed = time.Since(start)

	rep.Requests = len(latencies)
	if rep.Elapsed > 0 {
		rep.RPS = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	if len(latencies) == 0 {
		return rep
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P95 = percentile(latencies, 0.95)
	rep.P99 = percentile(latencies, 0.99)
	rep.Max = latencies[len(latencies)-1]
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	rep.Mean = sum / time.Duration(len(latencies))
	return rep
}

// runPhase issues budget requests across workers; record may be nil (warmup).
func runPhase(ctx context.Context, workers, budget int, fn RequestFunc, record func(Result)) {
	tickets := make(chan int, budget)
	for i := 0; i < budget; i++ {
		tickets <- i
	}
	close(tickets)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := 0
			for range tickets {
				if ctx.Err() != nil {
					return
				}
				start := time.Now()
				r := fn(ctx, w, seq)
				if r.Latency == 0 {
					r.Latency = time.Since(start)
				}
				if record != nil {
					record(r)
				}
				seq++
			}
		}(w)
	}
	wg.Wait()
}

// percentile returns the value at quantile q over sorted latencies using the
// nearest-rank method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
