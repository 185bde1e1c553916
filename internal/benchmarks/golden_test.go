package benchmarks

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// goldenTolerance is the relative distance within which a modeled GFLOPS or
// speedup reproduces its golden value. Every number is model output, so on
// one host it reproduces exactly; the bound is there because the CPU model
// calls math.Pow, which reaches math.Exp, whose FMA path changes the last
// bits between amd64 CPUs. No change to a model moves a number this little.
const goldenTolerance = 1e-6

// TestExperimentsGolden runs every registered experiment exactly as
// beaglebench does and requires its report to match
// testdata/BENCH_<experiment>.json: the same experiment, description and unit,
// the same records in the same order with equal identity fields, and GFLOPS
// and speedup within goldenTolerance in either direction — a dropped
// transfer charge makes a modeled number rise, and that is drift too. After a
// change that means to move a modeled number, regenerate the files with
// beaglebench -json internal/benchmarks/testdata and read the diff.
func TestExperimentsGolden(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var files, want []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	for _, name := range ExperimentNames() {
		want = append(want, "BENCH_"+name+".json")
	}
	slices.Sort(want)
	if !slices.Equal(files, want) {
		t.Errorf("testdata holds %v, want one report per registered experiment: %v", files, want)
	}

	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			if name == "fig4" && testing.Short() {
				t.Skip("the full Fig. 4 sweep takes about 10 s")
			}
			golden := readGolden(t, name)
			got, err := goldenRun(name)(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range reportDiffs(got, golden) {
				t.Error(d)
			}
		})
	}
}

// table4Rows and fig6Rows are the one run of each of the two slowest
// experiments that this package's tests share: TestExperimentsGolden checks
// its report, TestTable4Shape and TestFig6Shape its rows.
var (
	table4Rows = sync.OnceValues(Table4)
	fig6Rows   = sync.OnceValues(Fig6)
)

// goldenRun is the registry entry TestExperimentsGolden runs for name: the
// registered one, except that table4 and fig6 read their rows from the
// shared run, with the registry's print and report steps.
func goldenRun(name string) func(io.Writer) (Report, error) {
	switch name {
	case "table4":
		return func(w io.Writer) (Report, error) { return experiment(w, table4Rows, PrintTable4, Table4Report) }
	case "fig6":
		return func(w io.Writer) (Report, error) { return experiment(w, fig6Rows, PrintFig6, Fig6Report) }
	}
	return Experiments[name]
}

// readGolden reads testdata/BENCH_<name>.json.
func readGolden(t *testing.T, name string) Report {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden Report
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// reportDiffs lists how got differs from its golden copy, naming the first
// few records that differ; it is empty when got reproduces want.
func reportDiffs(got, want Report) []string {
	var diffs []string
	if got.Experiment != want.Experiment || got.Description != want.Description || got.Unit != want.Unit {
		diffs = append(diffs, fmt.Sprintf("report is (%q, %q, %q), want (%q, %q, %q)",
			got.Experiment, got.Description, got.Unit, want.Experiment, want.Description, want.Unit))
	}
	if len(got.Records) != len(want.Records) {
		return append(diffs, fmt.Sprintf("%d records, want %d", len(got.Records), len(want.Records)))
	}
	const shown = 5
	differ := 0
	for i, g := range got.Records {
		w := want.Records[i]
		id, wantID := g, w
		id.GFLOPS, id.Speedup, wantID.GFLOPS, wantID.Speedup = 0, 0, 0, 0
		if id == wantID && near(g.GFLOPS, w.GFLOPS) && near(g.Speedup, w.Speedup) {
			continue
		}
		if differ++; differ <= shown {
			diffs = append(diffs, fmt.Sprintf("record %d is %+v, want %+v", i, g, w))
		}
	}
	if differ > shown {
		diffs = append(diffs, fmt.Sprintf("and %d more records differ", differ-shown))
	}
	return diffs
}

// near reports whether got is within goldenTolerance of want, relatively.
func near(got, want float64) bool {
	return math.Abs(got-want) <= goldenTolerance*math.Abs(want)
}

// cloneReport copies r with its own record slice, so a test can move one
// record without touching the golden copy.
func cloneReport(r Report) Report {
	r.Records = slices.Clone(r.Records)
	return r
}

// TestCompareDetectsInjectedSlowdown is the golden comparison's acceptance
// test. Every golden record is model output, so the comparison is an
// equality check: a record that moved by 0.1% must be reported whether it
// went down or up (a dropped transfer charge makes modeled GFLOPS rise), while
// an identical report and the last-bit noise of a JSON round trip pass.
func TestCompareDetectsInjectedSlowdown(t *testing.T) {
	golden := readGolden(t, "fig4smoke")
	if golden.Unit != "GFLOPS" || golden.Records[3].GFLOPS == 0 {
		t.Fatalf("fig4smoke golden is not a GFLOPS report: %+v", golden.Records[3])
	}
	for _, factor := range []float64{0.8, 0.999, 1.001} {
		moved := cloneReport(golden)
		moved.Records[3].GFLOPS *= factor
		diffs := reportDiffs(moved, golden)
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], "record 3 ") {
			t.Errorf("x%v on record 3 reported as %q", factor, diffs)
		}
	}
	if diffs := reportDiffs(cloneReport(golden), golden); len(diffs) != 0 {
		t.Errorf("identical report reported as %q", diffs)
	}
	rounded := cloneReport(golden)
	for i := range rounded.Records {
		rounded.Records[i].GFLOPS *= 1 + 1e-9
	}
	if diffs := reportDiffs(rounded, golden); len(diffs) != 0 {
		t.Errorf("1e-9 rounding reported as %q", diffs)
	}
	// Every record moved: the first few are named, the rest counted.
	slowed := cloneReport(golden)
	for i := range slowed.Records {
		slowed.Records[i].GFLOPS *= 0.5
	}
	diffs := reportDiffs(slowed, golden)
	if want := fmt.Sprintf("and %d more records differ", len(golden.Records)-5); len(diffs) != 6 || diffs[5] != want {
		t.Errorf("all records halved reported as %q, want five records and %q", diffs, want)
	}
}

// TestCompareSpeedupMetric checks speedup-unit records (fig6) are held on
// their speedup factor, in both directions.
func TestCompareSpeedupMetric(t *testing.T) {
	golden := readGolden(t, "fig6")
	if golden.Unit != "speedup" || golden.Records[0].Speedup == 0 {
		t.Fatalf("fig6 golden is not a speedup report: %+v", golden.Records[0])
	}
	for _, factor := range []float64{0.999, 1.001} {
		moved := cloneReport(golden)
		moved.Records[0].Speedup *= factor
		if diffs := reportDiffs(moved, golden); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "record 0 ") {
			t.Errorf("speedup x%v on record 0 reported as %q", factor, diffs)
		}
	}
}

// TestCompareMissingRecordFailsGate checks that coverage cannot change
// silently: a dropped record, an added one and a reordering are all reported.
func TestCompareMissingRecordFailsGate(t *testing.T) {
	golden := readGolden(t, "fig4smoke")
	dropped := cloneReport(golden)
	dropped.Records = dropped.Records[:len(dropped.Records)-1]
	if diffs := reportDiffs(dropped, golden); len(diffs) != 1 {
		t.Errorf("dropped record reported as %q", diffs)
	}
	added := cloneReport(golden)
	added.Records = append(added.Records, added.Records[0])
	if diffs := reportDiffs(added, golden); len(diffs) != 1 {
		t.Errorf("added record reported as %q", diffs)
	}
	swapped := cloneReport(golden)
	swapped.Records[0], swapped.Records[1] = swapped.Records[1], swapped.Records[0]
	if diffs := reportDiffs(swapped, golden); len(diffs) != 2 {
		t.Errorf("two swapped records reported as %q", diffs)
	}
}

// TestCompareExperimentMismatch checks that the report header and every
// identity field of a record must equal the golden copy's.
func TestCompareExperimentMismatch(t *testing.T) {
	golden := readGolden(t, "fig4smoke")
	for _, edit := range []func(*Report){
		func(r *Report) { r.Experiment = "fig4" },
		func(r *Report) { r.Description += "." },
		func(r *Report) { r.Unit = "speedup" },
	} {
		other := cloneReport(golden)
		edit(&other)
		if diffs := reportDiffs(other, golden); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "report is ") {
			t.Errorf("header change reported as %q", diffs)
		}
	}
	other := cloneReport(golden)
	other.Records[2].Device += " "
	if diffs := reportDiffs(other, golden); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "record 2 ") {
		t.Errorf("device name change reported as %q", diffs)
	}
}
