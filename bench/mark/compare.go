package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	// verdictMissing: a has the metric and b does not, so nothing shows that
	// it did not get worse.
	verdictMissing = "missing"
)

// worseBy is how much worse b's median is than a's, as a share of a's
// (negative when b is better), in the metric's own direction.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares one metric of two records. Where the round-to-round spread
// of either side is wider than the bound the row is unresolved, not ok —
// unless every round of b reads better than every round of a.
func judge(a, b metricValue) (delta float64, verdict string) {
	delta = worseBy(a.Better, a.Value, b.Value)
	spread := max(iqrRatio(a.Rounds), iqrRatio(b.Rounds))
	if spread > a.Bound {
		allBetter := len(a.Rounds) > 0 && len(b.Rounds) > 0
		for _, x := range a.Rounds {
			for _, y := range b.Rounds {
				if worseBy(a.Better, x, y) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return delta, verdictOK
		}
		return delta, verdictUnresolved
	}
	if delta > a.Bound {
		return delta, verdictWorse
	}
	return delta, verdictOK
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

func (rec *record) find(name, workload string) *metricValue {
	for i := range rec.Metrics {
		if rec.Metrics[i].Name == name && rec.Metrics[i].Workload == workload {
			return &rec.Metrics[i]
		}
	}
	return nil
}

// compareRecords prints one row per (bounded metric, workload) pair of two
// records — the end-to-end metrics and op_ms_p95 — with both medians and
// their quartiles, b's change with a as its base, the bound and the verdict;
// then the exact counts, which must be equal when the seeds are. It returns 1
// when any row is worse, a metric of a is missing from b, or an exact count
// differs.
func compareRecords(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "mark:", err)
		return 2
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "mark:", err)
		return 2
	}
	return compareTo(a, b, stdout)
}

func compareTo(a, b *record, stdout io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-13s %-34s %-34s %9s %6s  %s\n",
		"metric", "workload", "a: median [q1, q3]", "b: median [q1, q3]", "b vs a", "bound", "verdict")
	for _, ma := range a.Metrics {
		if ma.Bound == 0 {
			continue
		}
		mb := b.find(ma.Name, ma.Workload)
		if mb == nil {
			bad++
			fmt.Fprintf(stdout, "%-14s %-13s %s\n", ma.Name, ma.Workload, verdictMissing)
			continue
		}
		delta, verdict := judge(ma, *mb)
		if verdict == verdictWorse {
			bad++
		}
		show := func(m metricValue) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", m.Value, m.Q1, m.Q3) }
		fmt.Fprintf(stdout, "%-14s %-13s %-34s %-34s %+8.1f%% %5.0f%%  %s\n",
			ma.Name, ma.Workload, show(ma), show(*mb), -100*delta*sign(ma.Better), 100*ma.Bound, verdict)
	}
	for _, name := range workloadNames() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		verdict := verdictOK
		if wb.Failed*wa.Attempted > wa.Failed*wb.Attempted {
			verdict = verdictWorse
			bad++
		}
		fmt.Fprintf(stdout, "%-14s %-13s %-34s %-34s %9s %6s  %s\n", "failed_ratio", name,
			fmt.Sprintf("%d/%d", wa.Failed, wa.Attempted), fmt.Sprintf("%d/%d", wb.Failed, wb.Attempted), "", "0%", verdict)
		if len(wa.CalibMs) > 0 && len(wb.CalibMs) > 0 {
			// Not judged: the machine's speed as each run saw it. A product
			// change that loads the machine between operations shows here.
			ca, cb := median(wa.CalibMs), median(wb.CalibMs)
			fmt.Fprintf(stdout, "%-14s %-13s %-34.5g %-34.5g %+8.1f%%\n", "calib_ms", name, ca, cb, 100*(cb-ca)/ca)
		}
	}
	if a.Seed != b.Seed {
		return min(bad, 1)
	}
	for _, ma := range a.Metrics {
		if !ma.Exact {
			continue
		}
		mb := b.find(ma.Name, ma.Workload)
		if mb == nil {
			bad++
			fmt.Fprintf(stdout, "%-34s %-13s %s\n", ma.Name, ma.Workload, verdictMissing)
			continue
		}
		verdict := "equal"
		if ma.Value != mb.Value {
			verdict = "differs"
			bad++
		}
		fmt.Fprintf(stdout, "%-34s %-13s %-14.8g %-14.8g %s\n", ma.Name, ma.Workload, ma.Value, mb.Value, verdict)
	}
	return min(bad, 1)
}

// sign turns "worse by" into the signed change of the value itself: a
// higher-is-better metric that got worse went down.
func sign(better string) float64 {
	if better == "higher" {
		return 1
	}
	return -1
}
