package benchmarks

import (
	"bytes"
	"strings"
	"testing"

	"gobeagle"
)

func TestNewProblemShapes(t *testing.T) {
	for _, states := range []int{4, 20, 61, 7} {
		p, err := NewProblem(1, 8, states, 100, 2)
		if err != nil {
			t.Fatalf("states=%d: %v", states, err)
		}
		if p.Model.StateCount != states {
			t.Fatalf("model states %d want %d", p.Model.StateCount, states)
		}
		if p.Patterns.PatternCount() != 100 || p.Tree.TipCount != 8 {
			t.Fatal("problem geometry wrong")
		}
		if p.OpCount() != 7 {
			t.Fatalf("op count %d", p.OpCount())
		}
		if p.FlopsPerEval() <= 0 {
			t.Fatal("non-positive flops")
		}
	}
	if _, err := NewProblem(1, 1, 4, 100, 1); err == nil {
		t.Fatal("expected error for 1 tip")
	}
}

func TestProblemVerifyOnHostAndDevice(t *testing.T) {
	p, err := NewProblem(2, 6, 4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := HostEval(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := DeviceEval(p, "Radeon R9 Nano", "OpenCL", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLevelWidthsSumToOps(t *testing.T) {
	p, err := NewProblem(3, 32, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range p.LevelWidths() {
		total += w
	}
	if total != p.OpCount() {
		t.Fatalf("level widths sum %d want %d", total, p.OpCount())
	}
}

func TestCPUModelOrderings(t *testing.T) {
	m := DefaultCPUModel()
	p, err := NewProblem(4, 16, 4, 10000, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial := m.ThroughputGF(0, 1, p, true) // cpuimpl.Serial
	futures := m.ThroughputGF(2, 56, p, true)
	create := m.ThroughputGF(3, 56, p, true)
	pool := m.ThroughputGF(4, 56, p, true)
	if !(pool > create && pool > futures && create > serial && futures > serial) {
		t.Fatalf("ordering violated: serial=%.1f futures=%.1f create=%.1f pool=%.1f",
			serial, futures, create, pool)
	}
	// Double precision must be slower than single.
	if m.ThroughputGF(4, 56, p, false) >= pool {
		t.Fatal("double precision not slower")
	}
	// Below the threading threshold the strategies degrade to serial.
	small, err := NewProblem(5, 16, 4, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.ThroughputGF(4, 56, small, true) != m.ThroughputGF(0, 1, small, true) {
		t.Fatal("threshold not honored in the model")
	}
}

func TestHybridChunksPolicy(t *testing.T) {
	cases := []struct {
		width, patterns, threads, want int
	}{
		{8, 10000, 56, 7},  // wide level, plenty of patterns: saturate pool
		{1, 10000, 56, 56}, // single op: pure pattern chunking
		{8, 128, 56, 2},    // small patterns: chunk bounded by HybridMinChunk
		{16, 128, 8, 1},    // level already wider than the pool
		{1, 1, 8, 1},       // degenerate: never below one chunk
	}
	for _, c := range cases {
		if got := hybridChunks(c.width, c.patterns, c.threads); got != c.want {
			t.Errorf("hybridChunks(%d, %d, %d) = %d, want %d",
				c.width, c.patterns, c.threads, got, c.want)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("row count %d", len(rows))
	}
	for _, r := range rows {
		// Thread-pool is the best plain strategy at every tree size (§VI-C).
		if !(r.ThreadPool > r.ThreadCreate && r.ThreadPool > r.Futures && r.ThreadPool > r.Serial) {
			t.Errorf("tips=%d: thread-pool not best: %+v", r.Tips, r)
		}
		// The hybrid scheduler never loses to the plain pool.
		if r.Hybrid < r.ThreadPool {
			t.Errorf("tips=%d: hybrid (%v) below thread-pool (%v)", r.Tips, r.Hybrid, r.ThreadPool)
		}
		if r.Speedup < 4 || r.Speedup > 25 {
			t.Errorf("tips=%d: speedup %v outside the paper's band", r.Tips, r.Speedup)
		}
	}
	// Serial throughput degrades on large trees (cache capacity).
	if !(rows[3].Serial < rows[0].Serial) {
		t.Error("serial rate did not degrade at 128 tips")
	}
	// Thread-pool throughput declines from 64 to 128 tips, as in the paper.
	if !(rows[3].ThreadPool < rows[2].ThreadPool) {
		t.Error("thread-pool rate did not decline at 128 tips")
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "thread-pool") {
		t.Error("print output malformed")
	}
}

func TestTable3HybridShape(t *testing.T) {
	rows, err := Table3Hybrid(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("row count %d", len(rows))
	}
	for _, r := range rows {
		// The whole point of the hybrid scheduler: at 128–512 patterns with
		// ≥8 independent operations it must at least match the plain pool,
		// which degrades to serial below the 512-pattern threshold.
		if r.MaxLevel < 8 {
			t.Errorf("tips=%d: widest level %d < 8 independent ops", r.Tips, r.MaxLevel)
		}
		if r.Gain < 1 {
			t.Errorf("tips=%d patterns=%d: hybrid gain %v < 1 over thread-pool",
				r.Tips, r.Patterns, r.Gain)
		}
		if r.Hybrid < r.Serial {
			t.Errorf("tips=%d patterns=%d: hybrid (%v) below serial (%v)",
				r.Tips, r.Patterns, r.Hybrid, r.Serial)
		}
	}
	// Below the 512-pattern threshold the plain pool is stuck at serial
	// speed while the hybrid exploits op-level parallelism, so the gain
	// must be substantial, not merely ≥1.
	for _, r := range rows {
		if r.Patterns < 512 && r.Gain < 2 {
			t.Errorf("tips=%d patterns=%d: expected a large hybrid gain below the threshold, got %v",
				r.Tips, r.Patterns, r.Gain)
		}
	}
	var buf bytes.Buffer
	PrintTable3Hybrid(&buf, rows)
	if !strings.Contains(buf.String(), "hybrid") {
		t.Error("print output malformed")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := table4Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("row count %d", len(rows))
	}
	for _, r := range rows {
		if r.PercentGain < 0 {
			t.Errorf("FMA must never hurt: %+v", r)
		}
		if r.WithFMA < r.WithoutFMA {
			t.Errorf("with-FMA slower: %+v", r)
		}
	}
	// Double precision gains more from FMA than single (Table IV: ~10–12%
	// vs ~1–2%).
	bestSingle, bestDouble := 0.0, 0.0
	for _, r := range rows {
		if r.Precision == "single" && r.PercentGain > bestSingle {
			bestSingle = r.PercentGain
		}
		if r.Precision == "double" && r.PercentGain > bestDouble {
			bestDouble = r.PercentGain
		}
	}
	if bestDouble <= bestSingle {
		t.Errorf("double gain (%v%%) must exceed single gain (%v%%)", bestDouble, bestSingle)
	}
	if bestDouble < 3 || bestDouble > 20 {
		t.Errorf("double-precision gain %v%% outside the paper's band", bestDouble)
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "FMA") {
		t.Error("print output malformed")
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("row count %d", len(rows))
	}
	ref := rows[0]
	if ref.Solution != "OpenCL-GPU" {
		t.Fatal("first row must be the GPU-style reference")
	}
	for _, r := range rows[1:] {
		// Every x86 work-group size beats the GPU-style kernels on the CPU
		// by a large factor (Table V: 5–6×).
		if r.Speedup < 3 || r.Speedup > 10 {
			t.Errorf("wg=%d: speedup %v outside the paper's band", r.WorkGroup, r.Speedup)
		}
	}
	// Throughput grows with work-group size and is near peak by 256
	// patterns (within 15% of the 1024-pattern value).
	for i := 2; i < len(rows); i++ {
		if rows[i].Throughput < rows[i-1].Throughput*0.98 {
			t.Errorf("throughput regressed at wg=%d", rows[i].WorkGroup)
		}
	}
	peak := rows[len(rows)-1].Throughput
	at256 := rows[3].Throughput
	if at256 < 0.85*peak {
		t.Errorf("wg=256 (%v) not near peak (%v)", at256, peak)
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "OpenCL-x86") {
		t.Error("print output malformed")
	}
}

func TestFig4Shape(t *testing.T) {
	panels, err := Fig4With([]int{1000, 10000, 100000}, []int{316, 3162, 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("panel count %d", len(panels))
	}
	series := func(panel Fig4Panel, name string) []float64 {
		for _, s := range panel.Series {
			if strings.Contains(s.Name, name) {
				return s.GFLOPS
			}
		}
		t.Fatalf("series %q missing", name)
		return nil
	}
	nuc, codon := panels[0], panels[1]

	// GPU throughput strongly scales with pattern count for nucleotide
	// models (§VIII-A1).
	r9 := series(nuc, "Radeon R9 Nano")
	if !(r9[0] < r9[1] && r9[1] < r9[2]) {
		t.Errorf("R9 Nano nucleotide curve not increasing: %v", r9)
	}
	// At large pattern counts the GPUs beat every CPU series.
	x86 := series(nuc, "OpenCL-x86")
	threads := series(nuc, "C++ threads: Intel Xeon E5")
	serial := series(nuc, "C++ serial")
	last := len(r9) - 1
	if !(r9[last] > x86[last] && r9[last] > threads[last] && r9[last] > serial[last]) {
		t.Errorf("R9 Nano not fastest at large sizes: r9=%v x86=%v threads=%v serial=%v",
			r9[last], x86[last], threads[last], serial[last])
	}
	// ~58× speedup over serial at the largest nucleotide size (paper: ~58).
	if ratio := r9[last] / serial[last]; ratio < 20 || ratio > 120 {
		t.Errorf("R9/serial speedup %v outside the paper's band", ratio)
	}
	// CUDA ≥ OpenCL on the same NVIDIA hardware (§VII-B1, Fig. 4).
	cuda := series(nuc, "CUDA: NVIDIA Quadro P5000")
	oclNV := series(nuc, "OpenCL-GPU: NVIDIA Quadro P5000")
	for i := range cuda {
		if cuda[i] < oclNV[i] {
			t.Errorf("OpenCL beats CUDA on the P5000 at point %d", i)
		}
	}
	// Codon models: higher throughput than nucleotide at matching device
	// and large size, and less sensitivity to pattern count (§VIII-A2).
	r9c := series(codon, "Radeon R9 Nano")
	if r9c[len(r9c)-1] <= r9[last] {
		t.Errorf("codon throughput (%v) should exceed nucleotide (%v)", r9c[len(r9c)-1], r9[last])
	}
	relRiseNuc := r9[last] / r9[0]
	relRiseCodon := r9c[len(r9c)-1] / r9c[0]
	if relRiseCodon >= relRiseNuc {
		t.Errorf("codon curve (rise %v) should be flatter than nucleotide (rise %v)", relRiseCodon, relRiseNuc)
	}
	var buf bytes.Buffer
	PrintFig4(&buf, panels)
	if !strings.Contains(buf.String(), "codon") {
		t.Error("print output malformed")
	}
}

func TestFig5Shape(t *testing.T) {
	points, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 8 {
		t.Fatalf("point count %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.Threads != 56 {
		t.Fatalf("final thread count %d", last.Threads)
	}
	// Both implementations scale up substantially from 1 to 56 threads.
	if last.ThreadedModel < 4*first.ThreadedModel {
		t.Errorf("threaded model scaling too weak: %v -> %v", first.ThreadedModel, last.ThreadedModel)
	}
	if last.OpenCLX86 < 4*first.OpenCLX86 {
		t.Errorf("OpenCL-x86 scaling too weak: %v -> %v", first.OpenCLX86, last.OpenCLX86)
	}
	// Saturation: the last doubling (28→56 threads) gains far less than
	// the first (paper: saturation around 27 threads).
	var at28 Fig5Point
	for _, pt := range points {
		if pt.Threads == 28 {
			at28 = pt
		}
	}
	if last.ThreadedModel > at28.ThreadedModel*1.5 {
		t.Errorf("no saturation: 28 threads %v, 56 threads %v", at28.ThreadedModel, last.ThreadedModel)
	}
	var buf bytes.Buffer
	PrintFig5(&buf, points)
	if !strings.Contains(buf.String(), "threads") {
		t.Error("print output malformed")
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := fig6Rows()
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 precisions × 5 engines.
	if len(rows) != 20 {
		t.Fatalf("row count %d", len(rows))
	}
	find := func(model, prec, engine string) float64 {
		for _, r := range rows {
			if r.Model == model && r.Precision == prec && strings.Contains(r.Engine, engine) {
				return r.Speedup
			}
		}
		t.Fatalf("row %s/%s/%s missing", model, prec, engine)
		return 0
	}
	// Codon speedups exceed nucleotide speedups for the same engine
	// ("speedups are largest under the codon models").
	for _, engine := range []string{"OpenCL-x86", "OpenCL-GPU", "C++ threads (Xeon E5"} {
		if find("codon", "single", engine) <= find("nucleotide", "single", engine) {
			t.Errorf("%s: codon speedup not larger than nucleotide", engine)
		}
	}
	// The headline: ~39× for the codon model on the dual Xeon (§I).
	headline := Headline(rows)
	if headline < 15 || headline > 80 {
		t.Errorf("headline speedup %v outside a plausible band around 39x", headline)
	}
	// Every library implementation beats the double-precision baseline.
	for _, r := range rows {
		if strings.Contains(r.Engine, "OpenCL") || strings.Contains(r.Engine, "threads (Xeon E5") {
			if r.Speedup <= 1 {
				t.Errorf("%+v: no speedup over baseline", r)
			}
		}
	}
	// The built-in SSE single bar is a modest speedup (paper ~1.7–1.9×).
	sse := find("nucleotide", "single", "MrBayes SSE")
	if sse < 1.2 || sse > 5 {
		t.Errorf("SSE single speedup %v outside a plausible band", sse)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows)
	if !strings.Contains(buf.String(), "headline") {
		t.Error("print output malformed")
	}
}

func TestDeviceEvalErrors(t *testing.T) {
	p, err := NewProblem(6, 4, 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeviceEval(p, "no such device", "OpenCL", 0, 0, 1); err == nil {
		t.Fatal("expected error for unknown device")
	}
	// The host CPU resource has no device queue.
	if _, err := DeviceEval(p, "CPU (host)", "", 0, 0, 1); err == nil {
		t.Fatal("expected error for host resource")
	}
	_ = gobeagle.FlagPrecisionSingle
}
