package main

import (
	"sync"
	"time"
)

// Why four workloads' operation timings are reported at a reference machine
// speed.
//
// The acceptance driver refuses a benchmark whose ten-run spread
// (inter-quartile distance over median) of any bounded metric exceeds its
// bound, 25 % at most, or whose medians of two such sets differ by more, and
// the builder is told to get every spread below a third of the bound. The
// build host is two vCPUs of a shared virtual machine that at times behave
// like one core: for seconds or minutes on end two goroutines running
// calibWork at once take twice as long as one, then they run side by side
// again, with no steal time reported; single-thread speed moves by a quarter
// from hour to hour as well. Ten runs of one seed spread 37 % on nuc_large's
// raw op_ms_p50 and 30 % on dist_2worker's, and medians of sets an hour apart
// differed by up to 60 % (README, "Measured A/A spread"); no statistic of a
// run's rounds (median, second best, best) brings that under 14 %, because
// the host moves between runs, not only inside them. ISSUE 12's prototype
// divided by a reference loop once a round, found it "did not help" and asked
// for none. Timed every few milliseconds between the operations, on as many
// goroutines as the workload computes on, it takes those same runs to 1.7 %
// and 3.7 %. So each operation's time is scaled by calibRefMs over the bursts
// around it, each set-up by a burst taken right after it, and the raw values
// stay in the record beside the scaled ones.
//
// That is done where the operation time follows a burst shaped like the
// workload's own computation (burstShape): all of it two wide for nuc_large
// and dist_2worker, all on one goroutine for the serial mcmc_reuse, and three
// tenths wide for deep_small, whose short operations overlap only on the
// wide levels of the tree — chosen by measurement: its time rose as the
// burst's to the power 0.67 with half the burst wide and 1.0 with three
// tenths, and the spread went 21 % raw, 18 % all wide, 7 % so. It is
// not done where the time does not follow any such burst: codon's
// wide-state kernel is a chain of dependent adds that loses nothing when the
// vCPUs share a core, so its raw time stayed within 37–43 ms while the burst
// went from 0.5 to 0.9 ms, and scaling it moved its median by 29 % between
// two runs; serve_http's latency is the batch window and timers as much as
// arithmetic. dist_2worker's set-up reaches its workers over loopback inside
// this one process — system calls and copies, no wire — and followed the
// burst as its operations did (30 % raw, 14 % scaled). Every layer probe is
// raw.
//
// What the scaling hides: a product change that loads the machine between its
// own operations (a spinning background goroutine) slows the bursts too. It
// shows in the raw values and in calib_ms, which -compare prints.

const (
	// calibRefMs defines the reference machine: one on which a burst takes
	// this long. It is a unit, not a tuning knob; changing it rescales every
	// normalised metric.
	calibRefMs = 1.0
	// calibEvery is the least time between two bursts, which keeps the
	// bursts near 5 % of a round.
	calibEvery = 20 * time.Millisecond
	// calibReps sizes a burst to about a millisecond.
	calibReps = 20
)

var calibBuf = func() []float64 {
	b := make([]float64, 1<<15)
	for i := range b {
		b[i] = 0.5 + float64(i%7)/16
	}
	return b
}()

// calibWork is reps passes of the burst's work on one goroutine:
// multiply-adds over a 256 KB array, shaped like a 4-state partials update.
func calibWork(reps int) float64 {
	var acc float64
	for rep := 0; rep < reps; rep++ {
		for i := 0; i+4 <= len(calibBuf); i += 4 {
			a, b, c, d := calibBuf[i], calibBuf[i+1], calibBuf[i+2], calibBuf[i+3]
			acc += (a*0.3 + b*0.2 + c*0.1 + d*0.4) * (a*0.1 + b*0.4 + c*0.3 + d*0.2)
		}
	}
	return acc
}

var calibSink float64

// burstShape spreads a burst's calibReps passes over goroutines the way the
// workload itself computes: the wide share of them on width goroutines at
// once (each does that many passes, as each thread of a pattern-chunked
// operation does its chunk), the rest on one. The zero value takes no bursts
// and leaves the workload's timings raw.
type burstShape struct {
	width int
	wide  float64
}

// calibrator times bursts between a round's operations and scales the
// operations' times to the reference machine speed.
type calibrator struct {
	shape   burstShape
	last    time.Time
	samples []float64 // ms per burst
	// at[i] is the number of bursts taken when operation i ended, which
	// places the operation among the bursts in time.
	at []int
}

// newCalibrator returns a calibrator for bursts of the given shape, or nil —
// which takes no bursts and scales nothing — for the zero shape.
func newCalibrator(shape burstShape) *calibrator {
	if shape.width == 0 {
		return nil
	}
	return &calibrator{shape: shape, last: time.Now()}
}

// burst runs one burst — the serial passes here, then the wide passes on
// width goroutines at once, waiting for all of them — and returns how long it
// took, in ms.
func (s burstShape) burst() float64 {
	t := time.Now()
	wide := 0
	if s.width > 1 {
		wide = int(s.wide*calibReps + 0.5)
	}
	calibSink += calibWork(calibReps - wide)
	if wide > 0 {
		var wg sync.WaitGroup
		for i := 0; i < s.width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibWork(wide)
			}()
		}
		wg.Wait()
	}
	return float64(time.Since(t)) / 1e6
}

// opDone is called after every timed operation: it runs a burst if
// calibEvery has passed since the last one, and notes where the operation
// fell.
func (c *calibrator) opDone() {
	if c == nil {
		return
	}
	if time.Since(c.last) >= calibEvery {
		c.samples = append(c.samples, c.shape.burst())
		c.last = time.Now()
	}
	c.at = append(c.at, len(c.samples))
}

// local is the burst time around burst k: the median of it and its two
// neighbours, so one preempted burst does not count and a change of machine
// speed is followed within a few bursts.
func (c *calibrator) local(k int) float64 {
	lo, hi := max(k-1, 0), min(k+2, len(c.samples))
	return median(c.samples[lo:hi])
}

// normalise scales each operation time (ms, in the order opDone was called)
// to the reference machine speed, by the bursts taken around it.
func (c *calibrator) normalise(ms []float64) []float64 {
	if c == nil {
		return nil
	}
	out := make([]float64, len(ms))
	for i, t := range ms {
		out[i] = t * calibRefMs / c.local(max(c.at[i]-1, 0))
	}
	return out
}

// ms is the round's median burst time, which the record keeps.
func (c *calibrator) ms() float64 {
	if c == nil {
		return 0
	}
	return median(c.samples)
}
