package benchmarks

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// This file implements the modeled-number gate: a committed baseline
// BENCH_<experiment>.json is compared record-by-record against a fresh run.
// Every record is model output and therefore deterministic, so the gate is an
// equality check: a record that moved in either direction fails it. Records
// are matched on their full configuration identity (device, implementation,
// strategy and problem shape); the compared metric is effective GFLOPS when
// present and the speedup factor otherwise (fig6 reports speedups).

// ReadReport loads a machine-readable BENCH_<experiment>.json report.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("benchmarks: %s: %w", path, err)
	}
	if rep.Experiment == "" {
		return Report{}, fmt.Errorf("benchmarks: %s: report has no experiment name", path)
	}
	return rep, nil
}

// recordKey is the configuration identity a record is matched on across
// runs: everything except the measured metrics.
func recordKey(r Record) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|s%d|p%d|c%d|t%d|th%d|wg%d",
		r.Device, r.Implementation, r.Strategy, r.Model, r.Precision,
		r.States, r.Patterns, r.Categories, r.Tips, r.Threads, r.WorkGroup)
}

// metric returns the compared measurement of a record and its unit label:
// GFLOPS when recorded, the speedup factor otherwise.
func metric(r Record) (float64, string) {
	if r.GFLOPS > 0 {
		return r.GFLOPS, "GFLOPS"
	}
	return r.Speedup, "speedup"
}

// Delta is one record's baseline-to-current comparison.
type Delta struct {
	Key     string  `json:"key"`
	Unit    string  `json:"unit"`
	Base    float64 `json:"base"`
	Current float64 `json:"current"`
	// Change is the relative delta (Current-Base)/Base.
	Change float64 `json:"change"`
	// Drift marks a record that no longer reproduces its baseline:
	// |Change| beyond Tolerance, up or down.
	Drift bool `json:"drift"`
}

// Comparison is the full result of gating one experiment.
type Comparison struct {
	Experiment string  `json:"experiment"`
	Deltas     []Delta `json:"deltas"`
	// Missing lists baseline records absent from the current run (a gate
	// failure: silently dropped coverage must not pass); Added lists new
	// records with no baseline (informational).
	Missing []string `json:"missing,omitempty"`
	Added   []string `json:"added,omitempty"`
}

// Drifted counts deltas that tripped the gate.
func (c Comparison) Drifted() int {
	n := 0
	for _, d := range c.Deltas {
		if d.Drift {
			n++
		}
	}
	return n
}

// Failed reports whether the gate should fail the run: any record that
// drifted, or baseline records the current run no longer produces.
func (c Comparison) Failed() bool { return c.Drifted() > 0 || len(c.Missing) > 0 }

// Tolerance is the gate's one constant: a modeled number reproduces its
// baseline when it is within this relative distance of it, which absorbs the
// JSON round trip and nothing a change to the models could produce.
const Tolerance = 1e-6

// Compare gates a current report against its baseline. Records with a zero
// baseline metric are compared only for presence (a ratio against zero is
// meaningless).
func Compare(baseline, current Report) (Comparison, error) {
	if baseline.Experiment != current.Experiment {
		return Comparison{}, fmt.Errorf("benchmarks: comparing %q against baseline %q",
			current.Experiment, baseline.Experiment)
	}
	cur := make(map[string]Record, len(current.Records))
	for _, r := range current.Records {
		cur[recordKey(r)] = r
	}
	cmp := Comparison{Experiment: baseline.Experiment}
	seen := map[string]bool{}
	for _, base := range baseline.Records {
		key := recordKey(base)
		seen[key] = true
		now, ok := cur[key]
		if !ok {
			cmp.Missing = append(cmp.Missing, key)
			continue
		}
		baseVal, unit := metric(base)
		nowVal, _ := metric(now)
		if baseVal <= 0 {
			continue
		}
		change := (nowVal - baseVal) / baseVal
		cmp.Deltas = append(cmp.Deltas, Delta{
			Key: key, Unit: unit, Base: baseVal, Current: nowVal,
			Change: change,
			Drift:  math.Abs(change) > Tolerance,
		})
	}
	for _, r := range current.Records {
		if key := recordKey(r); !seen[key] {
			cmp.Added = append(cmp.Added, key)
		}
	}
	// Largest move first, in either direction, so drifted records lead.
	sort.SliceStable(cmp.Deltas, func(i, j int) bool {
		return math.Abs(cmp.Deltas[i].Change) > math.Abs(cmp.Deltas[j].Change)
	})
	return cmp, nil
}

// PrintComparison renders the gate result: missing records, then every
// drifted record with its direction.
func PrintComparison(w io.Writer, c Comparison) {
	status := "PASS"
	if c.Failed() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "benchmark gate [%s]: %s — %d records compared, %d drifted beyond %.0e (either direction), %d missing\n",
		c.Experiment, status, len(c.Deltas), c.Drifted(), Tolerance, len(c.Missing))
	for _, key := range c.Missing {
		fmt.Fprintf(w, "  MISSING %s\n", key)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range c.Deltas {
		if !d.Drift {
			break
		}
		fmt.Fprintf(tw, "  DRIFT\t%s\t%.6f -> %.6f %s\t%+.4f%%\n",
			shortKey(d.Key), d.Base, d.Current, d.Unit, d.Change*100)
	}
	tw.Flush()
	if len(c.Added) > 0 {
		fmt.Fprintf(w, "  %d records have no baseline yet (regenerate baselines to cover them)\n", len(c.Added))
	}
}

// shortKey compresses a record key for table output by dropping empty
// segments.
func shortKey(key string) string {
	parts := strings.Split(key, "|")
	out := parts[:0]
	for _, p := range parts {
		switch p {
		case "", "s0", "p0", "c0", "t0", "th0", "wg0":
			continue
		}
		out = append(out, p)
	}
	return strings.Join(out, "|")
}
