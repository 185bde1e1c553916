package gobeagle

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"gobeagle/internal/device"
	"gobeagle/internal/metricsx"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

var updateObservability = flag.Bool("update-observability", false,
	"rewrite testdata/observability_golden.json from this run")

const observabilityGolden = "testdata/observability_golden.json"

// TestObservabilityGolden pins what an instance reports about one fixed
// evaluation — Stats(), the /metrics series and the TraceJSON spans — on a
// ThreadPoolHybrid CPU instance, an accelerator and a two-backend
// FlagRebalance multi-device instance with fixed shares. Timing fields are
// masked; everything else (kernel families, op and call counts, flops, level
// shapes, metric names and labels, span kinds, lanes, batch membership and
// args) must match the golden file exactly. Regenerate with -update-observability only for a
// change that means to move one of these outputs.
func TestObservabilityGolden(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(61))
	tr, err := tree.Random(rng, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rng, tr, m, rates, 300)
	if err != nil {
		t.Fatal(err)
	}
	ps := seqgen.CompressPatterns(align)

	config := func(resource int, flags Flags) Config {
		cfg := instanceConfig(tr, 4, ps.PatternCount(), 2, resource, flags|FlagTelemetry|FlagTrace)
		cfg.MatrixBuffers = tr.NodeCount() + 3
		cfg.Threads = 4
		return cfg
	}
	type build struct {
		name string
		make func() (*Instance, error)
	}
	builds := []build{
		{"cpu-hybrid", func() (*Instance, error) {
			return NewInstance(config(0, FlagThreadingThreadPoolHybrid))
		}},
		{"accelerator", func() (*Instance, error) {
			return NewInstance(config(1, FlagPrecisionSingle))
		}},
		{"multi-rebalance", func() (*Instance, error) {
			return NewMultiDeviceInstance(config(0, FlagPrecisionSingle|FlagThreadingThreadPoolHybrid|FlagRebalance),
				[]int{0, 1}, []float64{1, 3})
		}},
	}
	got := map[string]any{}
	for _, b := range builds {
		inst, err := b.make()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		observedEvaluation(t, inst, tr, m, rates, ps)
		got[b.name] = observe(t, inst)
		inst.Finalize()
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateObservability {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(observabilityGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(observabilityGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-observability to create it)", err)
	}
	if !bytes.Equal(out, want) {
		gotLines, wantLines := strings.Split(string(out), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("observability output differs from %s at line %d:\n got  %s\n want %s",
					observabilityGolden, i+1, g, w)
			}
		}
	}
}

// observedEvaluation runs the fixed evaluation: matrices, a rescaled
// partials batch, scale accumulation, the root likelihood and the edge
// derivatives across the root's two children.
func observedEvaluation(t *testing.T, inst *Instance, tr *tree.Tree, m *substmodel.Model,
	rates *substmodel.SiteRates, ps *seqgen.PatternSet) {
	t.Helper()
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		inst.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		inst.SetCategoryRates(rates.Rates),
		inst.SetCategoryWeights(rates.Weights),
		inst.SetStateFrequencies(m.Frequencies),
		inst.SetPatternWeights(ps.Weights),
	}
	for i := 0; i < tr.TipCount; i++ {
		steps = append(steps, inst.SetTipStates(i, ps.TipStates(i)))
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	sched := tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		t.Fatal(err)
	}
	ops := make([]Operation, len(sched.Ops))
	scales := make([]int, len(sched.Ops))
	for i, op := range sched.Ops {
		scales[i] = i
		ops[i] = Operation{
			Destination: op.Dest, DestScaleWrite: i, DestScaleRead: None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	cum := len(sched.Ops)
	root := sched.Ops[len(sched.Ops)-1]
	edge := tr.NodeCount()
	steps = []error{
		inst.UpdatePartials(ops),
		inst.ResetScaleFactors(cum),
		inst.AccumulateScaleFactors(scales, cum),
		inst.UpdateTransitionMatrices(0, []int{edge}, []float64{0.2}),
		inst.UpdateTransitionDerivatives(0, []int{edge + 1}, []int{edge + 2}, []float64{0.2}),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inst.CalculateRootLogLikelihoods(root.Dest, cum); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := inst.CalculateEdgeDerivatives(root.Child1, root.Child2, edge, edge+1, edge+2, None); err != nil {
		t.Fatal(err)
	}
}

// observe captures an instance's reports with timing masked.
func observe(t *testing.T, inst *Instance) map[string]any {
	t.Helper()
	return map[string]any{
		"stats":   maskedStats(t, inst.Stats()),
		"metrics": metricSeries(inst),
		"trace":   traceSpans(t, inst),
	}
}

// timingFields are the Stats JSON fields that carry wall-clock measurements.
var timingFields = map[string]bool{
	"total_ns": true, "min_ns": true, "max_ns": true, "wall_ns": true,
	"effective_gflops": true, "throughput_pattern_ops_per_s": true,
}

func maskedStats(t *testing.T, s Stats) any {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var mask func(v any) any
	mask = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				switch {
				case timingFields[k]:
					x[k] = "*"
				case k == "histogram": // bucket bounds are timing; keep the sample count
					var n float64
					for _, b := range e.([]any) {
						n += b.(map[string]any)["count"].(float64)
					}
					x[k] = n
				default:
					x[k] = mask(e)
				}
			}
		case []any:
			for i := range x {
				x[i] = mask(x[i])
			}
		}
		return v
	}
	return mask(v)
}

// metricSeries lists the /metrics series (name and labels), values dropped.
func metricSeries(inst *Instance) []string {
	var buf bytes.Buffer
	metricsx.WriteProm(&buf, instanceSource{inst}.Metrics())
	var series []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series = append(series, line[:strings.LastIndexByte(line, ' ')])
	}
	return series
}

// traceSpans renders every TraceJSON span as "layer/lane name args", sorted.
// Concurrent backends and pool workers interleave spans and draw batch ids
// in a racy order, so the list is sorted, worker lanes are masked, and each
// batch id is replaced by its head span (the partials batch or barrier that
// owns it) and that head's rank on its lane.
func traceSpans(t *testing.T, inst *Instance) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := inst.TraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type head struct {
		where string
		id    float64
	}
	var heads []head
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && (ev.Name == "partials batch" || ev.Name == "batch barrier") {
			heads = append(heads, head{fmt.Sprintf("%s/%d %s", ev.Cat, ev.Tid, ev.Name), ev.Args["batch"].(float64)})
		}
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i].id < heads[j].id })
	label := map[float64]string{}
	rank := map[string]int{}
	for _, h := range heads {
		rank[h.where]++
		label[h.id] = fmt.Sprintf("%s #%d", h.where, rank[h.where])
	}
	var spans []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		lane := fmt.Sprint(ev.Tid)
		if ev.Cat == "workers" {
			lane = "*"
		}
		if b, ok := ev.Args["batch"].(float64); ok {
			ev.Args["batch"] = label[b]
		}
		args, err := json.Marshal(ev.Args)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, fmt.Sprintf("%s/%s %s %s", ev.Cat, lane, ev.Name, args))
	}
	sort.Strings(spans)
	return spans
}
