package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one reported number: the median of its per-round values,
// with the quartiles and the per-round values themselves.
type metricValue struct {
	Name     string    `json:"name"`
	Workload string    `json:"workload"` // "-" for fixed-shape layer probes
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Rounds   []float64 `json:"rounds"`
	// RawRounds are the per-round values as the wall clock read them, for a
	// value of kind "normalised" (scaled to the reference machine speed).
	RawRounds []float64 `json:"raw_rounds,omitempty"`
	Samples   int       `json:"samples"` // timed operations behind the value
	Layer     bool      `json:"layer,omitempty"`
	Exact     bool      `json:"exact,omitempty"`
	Moves     string    `json:"moves,omitempty"`
	On        []string  `json:"on,omitempty"`
}

// workloadRecord is one workload's counts and input identity.
type workloadRecord struct {
	Why       string `json:"why"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	PinError  string `json:"pin_error,omitempty"`
	// CalibMs is the median calibration burst time of each untraced round of
	// a normalised workload: the machine's speed as the harness saw it.
	CalibMs []float64 `json:"calib_ms,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// record is the one JSON result a run writes.
type record struct {
	Benchmark string                     `json:"benchmark"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Rounds    int                        `json:"rounds"`
	Trace     bool                       `json:"trace"`
	Threads   int                        `json:"threads"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]*workloadRecord `json:"workloads"`
	// Probes counts the layer probes' own checked results (traced runs).
	Probes  workloadRecord `json:"probes"`
	Metrics []metricValue  `json:"metrics"`
	// Expected is this run's digests and reference values in the format of
	// expected.json; for seed 1 it is what that file must hold.
	Expected expectedFile `json:"expected"`
}

func newRecord(opt options) *record {
	return &record{
		Benchmark: "beaglemark", Seed: opt.seed, Seconds: opt.seconds, Rounds: opt.rounds, Trace: opt.trace,
		Threads: threads(),
		Host: hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			CPU: cpuModel(), Commit: commit()},
		Workloads: map[string]*workloadRecord{},
		Expected:  expectedFile{},
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(data))
	}
	return h
}

// roundValues are one round's values of the bounded metrics. The driver
// wants every metric from every workload, so the three the issue assigns to
// single workloads are defined on all of them: eval_gflops is the operation's
// flop count over op_ms_p50 — the same measurement in the paper's unit, which
// is why the two share a bound — and ops_per_s is the closed loop's
// throughput, whatever the operation.
func roundValues(r roundResult, flops float64) map[string]float64 {
	p50 := percentile(r.latencies(), 50)
	return map[string]float64{
		"setup_s":     r.setupS,
		"eval_gflops": flops / (p50 * 1e-3) / 1e9,
		"ops_per_s":   float64(r.ops) / r.wallS,
		"op_ms_p50":   p50,
		"op_ms_p95":   percentile(r.latencies(), 95),
		"resident_mb": r.residentMB,
	}
}

func (rec *record) add(def *metricDef, workload string, rounds []float64, samples int, layer bool) *metricValue {
	q1, q3 := quartiles(rounds)
	rec.Metrics = append(rec.Metrics, metricValue{
		Name: def.name, Workload: workload, Value: median(rounds), Unit: def.unit, Kind: def.kind,
		Better: def.better, Bound: def.bound, Q1: q1, Q3: q3, Rounds: rounds, Samples: samples,
		Layer: layer, Exact: def.exact, Moves: def.moves, On: def.on,
	})
	return &rec.Metrics[len(rec.Metrics)-1]
}

// addWorkload turns a workload's rounds into metric values.
func (rec *record) addWorkload(r *running) {
	wr := &workloadRecord{Why: findWorkload(r.name).why, PinError: r.pinErr}
	if rec.Seed == 1 {
		wr.Attempted++
		if r.pinErr != "" {
			wr.Failed++
		}
	}
	wr.Attempted += r.warm.attempted
	wr.Failed += r.warm.failed
	rec.Workloads[r.name] = wr
	rec.Expected[r.name] = r.w.pinned()

	// Timings are reported at the reference machine speed where the round
	// took bursts (calib.go), with the raw values beside them.
	per, raw := map[string][]float64{}, map[string][]float64{}
	samples := 0
	for _, res := range r.untraced {
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		samples += len(res.latencies())
		for k, v := range roundValues(res.atReferenceSpeed(), r.w.flops()) {
			per[k] = append(per[k], v)
		}
		if res.scaled != nil {
			wr.CalibMs = append(wr.CalibMs, res.calibMs)
			for k, v := range roundValues(res, r.w.flops()) {
				if k != "resident_mb" {
					raw[k] = append(raw[k], v)
				}
			}
		}
	}
	add := func(def *metricDef, layer bool) {
		m := rec.add(def, r.name, per[def.name], samples, layer)
		if m.RawRounds = raw[def.name]; m.RawRounds != nil {
			m.Kind = kindNormalised
		}
	}
	for i := range endToEnd {
		add(&endToEnd[i], false)
	}
	add(findMetric(perLayer, "op_ms_p95"), true)
	if len(r.traced) == 0 {
		return
	}
	var tracedP50s []float64
	for _, res := range r.traced {
		tracedP50s = append(tracedP50s, percentile(res.atReferenceSpeed().latencies(), 50))
	}
	layer := map[string][]float64{
		// Measured: the traced rounds' median latency over that of the
		// untraced rounds they alternate with.
		"harness.trace_overhead_ratio": {median(tracedP50s) / median(per["op_ms_p50"])},
		"harness.round_iqr_ratio":      {iqrRatio(per["op_ms_p50"])},
	}
	tracedSamples := 0
	for _, res := range r.traced {
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		tracedSamples += len(res.latencies())
		for k, v := range res.layer {
			layer[k] = append(layer[k], v)
		}
	}
	for i := range perLayer {
		if vals, ok := layer[perLayer[i].name]; ok {
			rec.add(&perLayer[i], r.name, vals, tracedSamples, true)
		}
	}
}

// addProbes records the fixed-shape layer probes' values.
func (rec *record) addProbes(values map[string][]float64, attempted, failed int) {
	rec.Probes = workloadRecord{Why: "fixed-shape layer probes", Attempted: attempted, Failed: failed}
	for i := range perLayer {
		if vals, ok := values[perLayer[i].name]; ok {
			rec.add(&perLayer[i], "-", vals, len(vals), true)
		}
	}
}

func (rec *record) attempted() int {
	n := rec.Probes.Attempted
	for _, w := range rec.Workloads {
		n += w.Attempted
	}
	return n
}

func (rec *record) failed() int {
	n := rec.Probes.Failed
	for _, w := range rec.Workloads {
		n += w.Failed
	}
	return n
}

// print lists every metric as "name workload value unit kind".
func (rec *record) print(w io.Writer) {
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "%-46s %-13s %14.6g %-7s %s\n", m.Name, m.Workload, m.Value, m.Unit, m.Kind)
		if m.RawRounds != nil {
			fmt.Fprintf(w, "%-46s %-13s %14.6g %-7s %s\n", m.Name, m.Workload, median(m.RawRounds), m.Unit, "raw")
		}
	}
	for _, name := range workloadNames() {
		if wr, ok := rec.Workloads[name]; ok {
			ratio := float64(wr.Failed) / float64(max(wr.Attempted, 1))
			fmt.Fprintf(w, "%-46s %-13s %14.6g %-7s %s\n", "failed_ratio", name, ratio, "ratio", "measured")
		}
	}
}

func (rec *record) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("encoding the record (a metric is not a finite number?): %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverLine is the one-line result the acceptance driver reads: whether
// every checked result was right, the counts, and every end-to-end metric
// (untraced run) or every per-layer metric (traced run) of the workload. A
// metric that is missing or not finite makes the run incorrect.
func (rec *record) driverLine(workload string, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]mv{}
	complete := true
	for _, d := range defs {
		found := false
		for _, m := range rec.Metrics {
			if m.Name == d.name && (m.Workload == workload || m.Workload == "-") && m.Layer == traced {
				found = !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0)
				metrics[d.name] = mv{m.Value, m.Unit}
				break
			}
		}
		if !found {
			complete = false
			metrics[d.name] = mv{-1, d.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   rec.failed() == 0 && complete,
		"attempted": rec.attempted(),
		"failed":    rec.failed(),
		"metrics":   metrics,
	})
	return string(line)
}

// describeJSON renders BENCHMARK.json from the definitions in metrics.go.
func describeJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/mark"},
		Paths:      []string{"bench/mark"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{d.name, d.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{d.name, d.unit, d.better})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return string(data)
}
