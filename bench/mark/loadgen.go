package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// target sends operation i on connection conn and reports whether it
// succeeded with a correct result.
type target func(conn, i int) bool

// loadResult is what a generator phase observed.
type loadResult struct {
	latMs     []float64 // per completed operation, in send order per connection
	lateMs    []float64 // open loop only: how long after its due time each operation was sent
	index     []int     // operation index of each latMs entry
	attempted int
	failed    int
	wall      time.Duration
}

// openLoop sends operations 0..n-1 at their due times (offsets from the
// phase start) over conns connections, whatever the target's speed: an
// operation whose connection is still busy waits, and that wait is charged
// to it, because its latency runs from the due time, not from the send. So a
// stall in the target shows in every operation queued behind it, as it would
// for independent users. lateMs reports how late the generator itself sent.
func openLoop(due []time.Duration, conns int, send target) loadResult {
	return generate(len(due), conns, 0, due, send)
}

// closedLoop runs conns clients that each send their next operation as soon
// as the previous one completes, for about dur or until limit operations
// have been sent.
func closedLoop(limit, conns int, dur time.Duration, send target) loadResult {
	return generate(limit, conns, dur, nil, send)
}

func generate(n, conns int, dur time.Duration, due []time.Duration, send target) loadResult {
	type sample struct {
		lat, late float64
		index     int
		ok        bool
	}
	var next atomic.Int64
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || (due == nil && time.Since(start) >= dur) {
					return
				}
				from := time.Now()
				var late float64
				if due != nil {
					at := start.Add(due[i])
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
					late = float64(time.Since(at)) / 1e6
					from = at
				}
				ok := send(c, i)
				per[c] = append(per[c], sample{lat: float64(time.Since(from)) / 1e6, late: late, index: i, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start)}
	for _, ss := range per {
		for _, s := range ss {
			res.attempted++
			if !s.ok {
				res.failed++
				continue
			}
			res.latMs = append(res.latMs, s.lat)
			res.index = append(res.index, s.index)
			if due != nil {
				res.lateMs = append(res.lateMs, s.late)
			}
		}
	}
	return res
}

// poissonSchedule draws n due times of a Poisson process of the given rate.
func poissonSchedule(r *rng, n int, perSecond float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += r.Exp() / perSecond
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
