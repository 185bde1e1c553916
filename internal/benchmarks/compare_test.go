package benchmarks

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateReport() Report {
	return Report{
		Experiment: "fig4smoke",
		Unit:       "GFLOPS",
		Records: []Record{
			{Device: "Radeon R9 Nano", Implementation: "R9 Nano", Strategy: "device",
				Model: "nucleotide", Precision: "single", States: 4, Patterns: 1000,
				Categories: 4, Tips: 16, GFLOPS: 400},
			{Device: "Xeon", Implementation: "OpenCL-x86", Strategy: "device",
				Model: "nucleotide", Precision: "single", States: 4, Patterns: 1000,
				Categories: 4, Tips: 16, GFLOPS: 98},
			{Implementation: "MrBayes-BEAGLE", Model: "nucleotide", Precision: "double",
				States: 4, Speedup: 2.5},
		},
	}
}

// TestCompareDetectsInjectedSlowdown is the gate's acceptance test. Every
// gated record is model output, so the gate is an equality check: a record
// that moved by 0.1% must trip it whether it went down or up (a dropped
// transfer charge makes modeled GFLOPS rise), and an identical report must
// pass.
func TestCompareDetectsInjectedSlowdown(t *testing.T) {
	base := gateReport()

	for _, factor := range []float64{0.8, 0.999, 1.001} {
		moved := gateReport()
		moved.Records[0].GFLOPS *= factor
		cmp, err := Compare(base, moved)
		if err != nil {
			t.Fatal(err)
		}
		if !cmp.Failed() || cmp.Drifted() != 1 {
			t.Fatalf("x%v on one record not gated: %+v", factor, cmp)
		}
		// Drifted records lead the list.
		d := cmp.Deltas[0]
		if !d.Drift || !strings.Contains(d.Key, "R9 Nano") {
			t.Errorf("x%v: wrong record flagged: %+v", factor, d)
		}
		if (d.Change > 0) != (factor > 1) {
			t.Errorf("x%v: change %+v has the wrong sign", factor, d.Change)
		}
	}

	cmp, err := Compare(base, gateReport())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() || cmp.Drifted() != 0 || len(cmp.Deltas) != len(base.Records) {
		t.Fatalf("identical report tripped the gate: %+v", cmp)
	}

	// The JSON round trip of a committed baseline is far inside Tolerance.
	rounded := gateReport()
	for i := range rounded.Records {
		rounded.Records[i].GFLOPS *= 1 + 1e-9
		rounded.Records[i].Speedup *= 1 - 1e-9
	}
	if cmp, err = Compare(base, rounded); err != nil || cmp.Failed() {
		t.Fatalf("1e-9 rounding tripped the gate: %+v, %v", cmp, err)
	}
}

// TestCompareSpeedupMetric checks speedup-unit records (fig6) are gated on
// their speedup factor, in both directions.
func TestCompareSpeedupMetric(t *testing.T) {
	base := gateReport()
	for _, speedup := range []float64{1.0, 2.5025} {
		cur := gateReport()
		cur.Records[2].Speedup = speedup
		cmp, err := Compare(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.Drifted() != 1 {
			t.Fatalf("speedup 2.5 -> %v not detected: %+v", speedup, cmp)
		}
		for _, d := range cmp.Deltas {
			if d.Drift && d.Unit != "speedup" {
				t.Errorf("drift gated on unit %q, want speedup", d.Unit)
			}
		}
	}
}

func TestCompareMissingRecordFailsGate(t *testing.T) {
	base := gateReport()
	cur := gateReport()
	cur.Records = cur.Records[:2] // coverage silently dropped
	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() || len(cmp.Missing) != 1 {
		t.Fatalf("missing record did not fail the gate: %+v", cmp)
	}

	// The reverse — new records with no baseline — is informational only.
	cmp, err = Compare(Report{Experiment: "fig4smoke", Records: base.Records[:2]}, base)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() || len(cmp.Added) != 1 {
		t.Fatalf("added record handled wrong: %+v", cmp)
	}
}

func TestCompareExperimentMismatch(t *testing.T) {
	base := gateReport()
	other := gateReport()
	other.Experiment = "fig4"
	if _, err := Compare(base, other); err == nil {
		t.Fatal("cross-experiment comparison must error")
	}
}

func TestReadReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := gateReport()
	path, err := WriteReport(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != rep.Experiment || len(got.Records) != len(rep.Records) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ReadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(bad); err == nil {
		t.Fatal("malformed JSON must error")
	}
}

func TestPrintComparisonShowsRegressions(t *testing.T) {
	base := gateReport()
	var buf bytes.Buffer
	for _, tc := range []struct {
		factor float64
		change string
	}{{0.5, "-50.0000%"}, {1.001, "+0.1000%"}} {
		cur := gateReport()
		cur.Records[0].GFLOPS *= tc.factor
		cmp, err := Compare(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		PrintComparison(&buf, cmp)
		out := buf.String()
		for _, want := range []string{"FAIL", "DRIFT", "R9 Nano", tc.change} {
			if !strings.Contains(out, want) {
				t.Errorf("x%v: comparison output missing %q:\n%s", tc.factor, want, out)
			}
		}
	}
	cmpOK, err := Compare(base, gateReport())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintComparison(&buf, cmpOK)
	if !strings.Contains(buf.String(), "PASS") || strings.Contains(buf.String(), "DRIFT") {
		t.Errorf("clean comparison not marked PASS:\n%s", buf.String())
	}
}
