package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Never interpolated: the result is always one of the samples.
	if got := percentile([]float64{1, 2}, 50); got != 1 {
		t.Errorf("percentile of two samples at 50 = %v, want the lower sample 1", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestMedianOfRounds(t *testing.T) {
	// One disturbed round out of seven does not move the reported value.
	rounds := []float64{3.1, 3.2, 3.0, 9.9, 3.3, 3.1, 3.2}
	if got := median(rounds); got != 3.2 {
		t.Errorf("median = %v, want 3.2", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := iqrRatio(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrRatio = %v, want 1", got)
	}
}

func TestEvalFlopsCountsFourSPlusOnePerEntry(t *testing.T) {
	// One operation, one pattern, one category, four states: 4 entries of 17.
	if got := evalFlops(1, 1, 1, 4); got != 68 {
		t.Errorf("evalFlops = %v, want 68", got)
	}
	if got := (shape{16, 61, 1000, 1}).flops(); got != 15*1000*61*245 {
		t.Errorf("codon flops = %v", got)
	}
}

// The open-loop generator times a request from when it was due, so a target
// that stalls once delays — in the reported latencies — every request that
// was due during the stall, and the generator says how late it sent them.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	due := make([]time.Duration, 6)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	res := openLoop(due, 1, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if res.attempted != len(due) || res.failed != 0 || len(res.latMs) != len(due) {
		t.Fatalf("attempted %d failed %d latencies %d", res.attempted, res.failed, len(res.latMs))
	}
	for k, i := range res.index {
		// Request i could not be sent before the stall ended, at least
		// stall - due[i] after its due time. Sleeps only overshoot, so the
		// lower bounds hold on any host.
		least := float64(stall-due[i]) / 1e6
		if res.latMs[k] < least {
			t.Errorf("request %d: latency %.2f ms, want at least %.2f: the backlog behind the stall is not charged", i, res.latMs[k], least)
		}
		if i > 0 && res.lateMs[k] < least {
			t.Errorf("request %d: reported %.2f ms late, want at least %.2f", i, res.lateMs[k], least)
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	res := closedLoop(10, 2, time.Minute, func(_, i int) bool { return i%5 != 0 })
	if res.attempted != 10 || res.failed != 2 || len(res.latMs) != 8 {
		t.Errorf("attempted %d failed %d ok %d, want 10 2 8", res.attempted, res.failed, len(res.latMs))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	s := shape{12, 4, 64, 4}
	gen := func(seed uint64) *problem {
		p, err := newProblem(fixedTopology(s.tips), newRNG(seed, "test"), s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a.digest() != b.digest() {
		t.Error("same seed gave different input digests")
	}
	if a.digest() == c.digest() {
		t.Error("different seeds gave the same input digest")
	}
	// The tree shape is part of the workload, not of the seed.
	strip := regexp.MustCompile(`:[0-9.e+-]+`)
	if strip.ReplaceAllString(a.newick, "") != strip.ReplaceAllString(c.newick, "") {
		t.Error("tree shape changed with the seed")
	}
	if newRNG(1, "a").Uint64() == newRNG(1, "b").Uint64() {
		t.Error("streams of one seed are not independent")
	}
}

func TestProposalStreamHasOneAllDirtyMovePerBlock(t *testing.T) {
	w := &mcmcWorkload{shape: shape{8, 4, 16, 2}}
	if err := w.prepare(3, time.Second); err != nil {
		t.Fatal(err)
	}
	w.extendStream(4 * movesPerBlock)
	for b := 0; b < 4; b++ {
		dirty := 0
		for _, m := range w.moves[b*movesPerBlock : (b+1)*movesPerBlock] {
			if m.allDirty {
				dirty++
			}
		}
		if dirty != 1 {
			t.Errorf("block %d has %d all-dirty moves, want 1", b, dirty)
		}
	}
	// The measured chain (FlagReuse, full resubmission) agrees with the
	// oracle reference on every move of a short round.
	r, err := w.round(time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.ops < movesPerBlock {
		t.Errorf("round: %d moves correct, %d of %d failed", r.ops, r.failed, r.attempted)
	}
}

func TestPinnedValuesAreChecked(t *testing.T) {
	e := expectedFile{"w": {Digest: "abc", Values: []float64{-1234.5}}}
	if msg := e.check("w", pinnedEntry{Digest: "abc", Values: []float64{-1234.5}}); msg != "" {
		t.Errorf("matching entry rejected: %s", msg)
	}
	for name, got := range map[string]pinnedEntry{
		"wrong value":  {Digest: "abc", Values: []float64{-1234.6}},
		"wrong digest": {Digest: "abd", Values: []float64{-1234.5}},
		"wrong count":  {Digest: "abc", Values: nil},
	} {
		if e.check("w", got) == "" {
			t.Errorf("%s accepted", name)
		}
	}
	if e.check("other", pinnedEntry{}) == "" {
		t.Error("workload without a pinned entry accepted")
	}
}

func TestSpanSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer()
	ln := tr.newLane("w")
	e := ln.begin("eval", 0)
	c := ln.begin("child", 0)
	ln.end(c)
	ln.end(e)
	ln.spans[e].start, ln.spans[e].end = 0, 100
	ln.spans[c].start, ln.spans[c].end = 10, 40
	total, self := ln.spanTotals(0), ln.selfNs()
	if total["eval"] != 100 || total["child"] != 30 || self[e] != 70 || self[c] != 30 {
		t.Errorf("total %v self %v", total, self)
	}
	if ln.spans[c].parent != e || ln.spans[e].parent != -1 {
		t.Error("parent links wrong")
	}
	var none *lane
	none.end(none.begin("x", 0)) // a nil lane records nothing and must not panic
}

func TestCalibratorScalesToReferenceSpeed(t *testing.T) {
	// Bursts of 2 ms mean the machine runs at half the reference speed, so a
	// 10 ms operation counts as 5 ms; one preempted burst changes nothing.
	c := &calibrator{samples: []float64{2, 2, 40, 2, 2}, at: []int{0, 1, 3, 5}}
	got := c.normalise([]float64{10, 10, 10, 10})
	for i, v := range got {
		if math.Abs(v-10*calibRefMs/2) > 1e-12 {
			t.Errorf("operation %d normalised to %v, want %v", i, v, 10*calibRefMs/2)
		}
	}
}

// A normalised round reports scaled timings with the raw ones beside them;
// memory is not a timing.
func TestRecordKeepsRawBesideNormalised(t *testing.T) {
	res := roundResult{closed: []float64{10, 10, 10, 10}, scaled: []float64{5, 5, 5, 5}, calibMs: 2,
		ops: 4, wallS: 0.05, setupS: 0.3, setupRefS: 0.15, residentMB: 7}
	r := &running{name: "codon", w: &evalWorkload{name: "codon", p: &problem{shape: shape{16, 61, 1000, 1}}},
		untraced: []roundResult{res, res, res, res, res}}
	rec := newRecord(options{seed: 2})
	rec.addWorkload(r)
	for name, want := range map[string][2]float64{
		"op_ms_p50": {5, 10}, "op_ms_p95": {5, 10}, "ops_per_s": {200, 80}, "setup_s": {0.15, 0.3},
	} {
		m := rec.find(name, "codon")
		if m == nil || m.Kind != kindNormalised || m.Value != want[0] || median(m.RawRounds) != want[1] {
			t.Errorf("%s = %+v, want %v normalised beside %v raw", name, m, want[0], want[1])
		}
	}
	if m := rec.find("resident_mb", "codon"); m == nil || m.Kind != "measured" || m.Value != 7 || m.RawRounds != nil {
		t.Errorf("resident_mb = %+v, want 7 raw", m)
	}
	if got := rec.Workloads["codon"].CalibMs; len(got) != 5 || got[0] != 2 {
		t.Errorf("calib_ms = %v", got)
	}
}

// The serve probe's three boundaries go through one timing function and one
// derivation, so a difference or ratio of them never mixes two clocks.
func TestServeBoundariesShareOneTimingPath(t *testing.T) {
	p := &prober{}
	var calls []int
	ms := p.boundaryP50(time.Millisecond, func(i int) bool {
		calls = append(calls, i)
		return i != 1 // the second call "fails": counted, not timed
	})
	if len(calls) < 2 || p.attempted != len(calls) || p.failed != 1 {
		t.Fatalf("calls %d attempted %d failed %d", len(calls), p.attempted, p.failed)
	}
	for k, i := range calls {
		if i != k {
			t.Fatalf("one caller must send 0,1,2,... in order, sent %v", calls)
		}
	}
	if math.IsNaN(ms) || ms < 0 {
		t.Errorf("p50 = %v", ms)
	}
	got := serveOverheads(0.5, 3, 6.5)
	want := map[string]float64{
		"serve.direct_eval_ms_p50": 0.5, "serve.inproc_ms_p50": 3,
		"serve.http_overhead_ms_p50": 3.5, "serve.overhead_ratio": 13,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("serveOverheads returned %d metrics, want %d", len(got), len(want))
	}
}

// A traced run's overhead ratio is the traced rounds' median latency over the
// untraced rounds' — measured, so it can exceed any limit — and every
// end-to-end metric, the tail included, comes from the untraced rounds only.
func TestTraceOverheadIsMeasuredFromRounds(t *testing.T) {
	round := func(ms float64) roundResult {
		return roundResult{closed: []float64{ms, ms, ms, 4 * ms}, ops: 4, wallS: 1, setupS: 1, residentMB: 1}
	}
	r := &running{name: "codon", w: &evalWorkload{name: "codon", p: &problem{shape: shape{16, 61, 1000, 1}}},
		untraced: []roundResult{round(10), round(10), round(10)},
		traced:   []roundResult{round(12), round(12)}}
	rec := newRecord(options{seed: 2})
	rec.addWorkload(r)
	if m := rec.find("harness.trace_overhead_ratio", "codon"); m == nil || m.Value != 1.2 {
		t.Errorf("trace_overhead_ratio = %+v, want 1.2", m)
	}
	if m := rec.find("op_ms_p50", "codon"); m == nil || m.Value != 10 || len(m.Rounds) != 3 {
		t.Errorf("op_ms_p50 = %+v, want 10 over the 3 untraced rounds", m)
	}
	if m := rec.find("op_ms_p95", "codon"); m == nil || m.Value != 40 || m.Bound != 0.25 {
		t.Errorf("op_ms_p95 = %+v, want 40 with a bound of 0.25", m)
	}
	p50, gf := rec.find("op_ms_p50", "codon"), rec.find("eval_gflops", "codon")
	if p50.Bound != gf.Bound || math.Abs(gf.Value*p50.Value*1e6-r.w.flops()) > 1 {
		t.Errorf("eval_gflops must be the flop count over op_ms_p50 with the same bound: %v GFLOPS, %v ms", gf.Value, p50.Value)
	}
}

func TestJudge(t *testing.T) {
	m := func(better string, rounds ...float64) metricValue {
		return metricValue{Better: better, Bound: 0.10, Value: median(rounds), Rounds: rounds}
	}
	steady := []float64{100, 101, 99, 100, 102, 100, 98}
	slower := []float64{120, 121, 119, 120, 122, 120, 118}
	wide := []float64{60, 140, 100, 80, 120, 100, 95}
	for _, c := range []struct {
		name string
		a, b metricValue
		want string
	}{
		{"same", m("lower", steady...), m("lower", steady...), verdictOK},
		{"latency up 20%", m("lower", steady...), m("lower", slower...), verdictWorse},
		{"throughput up 20%", m("higher", steady...), m("higher", slower...), verdictOK},
		{"throughput down", m("higher", slower...), m("higher", steady...), verdictWorse},
		{"spread wider than bound", m("lower", wide...), m("lower", steady...), verdictUnresolved},
		{"wide but every round better", m("higher", wide...), m("higher", 150, 160, 155), verdictOK},
	} {
		if _, got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsMissingMetricsAndCounts(t *testing.T) {
	m := metricValue{Name: "op_ms_p50", Workload: "codon", Better: "lower", Bound: 0.25, Value: 10, Rounds: []float64{10, 10, 10}}
	exact := metricValue{Name: "remoteimpl.rpcs_per_eval", Workload: "-", Layer: true, Exact: true, Value: 6}
	a := &record{Seed: 1, Metrics: []metricValue{m, exact}}
	var out strings.Builder
	if code := compareTo(a, a, &out); code != 0 {
		t.Errorf("a record compared with itself: exit %d\n%s", code, out.String())
	}
	for name, b := range map[string]*record{
		"end-to-end metric gone": {Seed: 1, Metrics: []metricValue{exact}},
		"exact count gone":       {Seed: 1, Metrics: []metricValue{m}},
	} {
		out.Reset()
		if code := compareTo(a, b, &out); code != 1 || !strings.Contains(out.String(), verdictMissing) {
			t.Errorf("%s: exit %d, output\n%s", name, code, out.String())
		}
	}
}

// BENCHMARK.json is what the acceptance driver reads; metrics.go is what the
// program measures. They must say the same thing, within the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := describeJSON(); strings.TrimSpace(string(data)) != got {
		t.Error("BENCHMARK.json differs from `go run ./bench/mark -describe`; regenerate it")
	}
	if doc.RunSeconds != runSeconds || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	// All runs the driver makes must fit its time limit: a run costs its
	// measured seconds plus about 5 s (start-up, input generation, warm-up
	// round, per-round set-up, reference checks), and two builds come first.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+5) > 3420-300 {
		t.Errorf("%d runs of %d s plus overhead do not fit 3420 s", runs, doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench/mark" {
		t.Errorf("paths = %v, want [bench/mark] (bench/baselines must stay editable)", doc.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	workloads := map[string]bool{}
	for _, w := range doc.Workloads {
		check("workload", w.Name)
		workloads[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	e2e := map[string]bool{}
	for _, m := range doc.EndToEnd {
		check("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range doc.PerLayer {
		check("per-layer", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	// Every per-layer metric predicts an existing end-to-end metric on
	// existing workloads.
	for _, d := range perLayer {
		if !e2e[d.moves] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range d.on {
			if !workloads[w] {
				t.Errorf("%s names workload %q, which does not exist", d.name, w)
			}
		}
		if d.kind != "measured" && d.kind != "computed" && d.kind != "modeled" {
			t.Errorf("%s: kind %q", d.name, d.kind)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// The benchmark must not measure with the product's own yardsticks.
func TestDoesNotImportProductBenchmarkCode(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{"internal/benchmarks", "internal/loadgen", "internal/flops"} {
			if strings.Contains(string(src), `"gobeagle/`+banned+`"`) {
				t.Errorf("%s imports %s", f.Name(), banned)
			}
		}
	}
}
