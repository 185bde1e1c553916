package accelimpl

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// The modeled-number pin. Everything an accelerator engine charges — kernel
// launches, host↔device bytes, the modeled device clock, device memory — and
// every value it returns is a pure function of the call sequence, so a change
// to the accelerator path that is meant to keep behaviour must reproduce this
// table exactly. The table was captured from the engine as it stood before
// the store was shared with the CPU engines; regenerate it (-update-golden)
// only for a change that means to move a modeled number, and say so.
//
// Quirks pinned on purpose, not endorsed: edge integrations launch with the
// partials operation's group size (patterns × states on the GPU variants),
// and CalculateEdgeDerivatives charges no site download.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/modeled_golden.json from this run")

const goldenPath = "testdata/modeled_golden.json"

// checkpoint is the state of the modeled device after one step.
type checkpoint struct {
	Step      string
	Launches  int64
	Bytes     int64
	ModeledNs int64
	Allocated int64
	// Values holds the bits of every float the step returned, slices folded
	// to one FNV-1a hash of their bits.
	Values []uint64 `json:",omitempty"`
}

func bitsOf(vs ...float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func hashOf(vs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h = (h ^ (b >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return h
}

// goldenRun drives one variant through every kind of call that charges the
// device and returns the checkpoint after each step.
func goldenRun(t *testing.T, vc variantCase, states int, single bool) []checkpoint {
	t.Helper()
	device.ResetPlatforms() // fresh devices: allocation accounting starts at zero
	rng := rand.New(rand.NewSource(int64(1000 + states)))
	tr, err := tree.Random(rng, 6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var m *substmodel.Model
	rates := substmodel.SingleRate()
	if states == 4 {
		m, _ = substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
		rates, _ = substmodel.GammaRates(0.5, 2)
	} else {
		m, _ = substmodel.NewGY94(2, 0.3, nil)
	}
	ps, err := seqgen.RandomPatterns(rng, tr.TipCount, states, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps.Weights {
		ps.Weights[i] = float64(1 + i%3)
	}

	nodes := tr.NodeCount()
	cfg := testConfig(tr, states, ps.PatternCount(), len(rates.Rates), single)
	cfg.MatrixBuffers = nodes + 4 // four spare matrices for the edge steps
	cfg.ScaleBuffers = nodes + 2  // per-op, cumulative, cumulative below the root
	dev, err := device.FindDevice(vc.fw, vc.devName)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, vc.variant, dev)
	if err != nil {
		t.Fatal(err)
	}
	q := e.(interface{ Queue() *device.Queue }).Queue()

	var out []checkpoint
	mark := func(step string, values ...uint64) {
		out = append(out, checkpoint{Step: step, Launches: q.Launches(), Bytes: q.BytesTransferred(),
			ModeledNs: int64(q.ModeledTime()), Allocated: dev.AllocatedBytes(), Values: values})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mark("new")

	mark("compact tips, rescaled", bitsOf(driveEngine(t, e, tr, m, rates, ps, true, true))...)
	mark("tip partials, rescaled", bitsOf(driveEngine(t, e, tr, m, rates, ps, false, true))...)

	sched := tr.FullSchedule()
	root, cum, cumBelow := sched.Root, len(sched.Ops), len(sched.Ops)+1
	site, err := e.SiteLogLikelihoods(root, cum)
	must(err)
	part, err := e.GetPartials(root)
	must(err)
	mat, err := e.GetTransitionMatrix(sched.Matrices[0].Matrix)
	must(err)
	mark("site lnL, get partials, get matrix", hashOf(site), hashOf(part), hashOf(mat))

	// The branch joining the root's children: its likelihood and derivatives
	// from matrices computed into the spares, scaled by every factor below
	// the root (the root operation is the schedule's last).
	left, right := tr.Root.Left.Index, tr.Root.Right.Index
	joined := tr.Root.Left.Length + tr.Root.Right.Length
	below := make([]int, len(sched.Ops)-1)
	for i := range below {
		below[i] = i
	}
	must(e.ResetScaleFactors(cumBelow))
	must(e.AccumulateScaleFactors(below, cumBelow))
	must(e.UpdateTransitionMatrices(0, []int{nodes}, []float64{joined}))
	must(e.UpdateTransitionDerivatives(0, []int{nodes + 1}, []int{nodes + 2}, []float64{joined}))
	edge, err := e.CalculateEdgeLogLikelihoods(left, right, nodes, cumBelow)
	must(err)
	lnL, d1, d2, err := e.CalculateEdgeDerivatives(left, right, nodes, nodes+1, nodes+2, cumBelow)
	must(err)
	_, d1only, _, err := e.CalculateEdgeDerivatives(left, right, nodes, nodes+1, engine.None, engine.None)
	must(err)
	mark("edge matrices, likelihood, derivatives", bitsOf(edge, lnL, d1, d2, d1only)...)

	explicit := make([]float64, cfg.Dims.MatrixLen())
	for i := range explicit {
		explicit[i] = rng.Float64()
	}
	must(e.SetTransitionMatrix(nodes+3, explicit))
	back, err := e.GetTransitionMatrix(nodes + 3)
	must(err)
	mark("set matrix", hashOf(back))

	mig := e.(engine.PatternMigrator)
	blk, err := mig.DetachPatterns(true, ps.PatternCount()/3)
	must(err)
	mark("detach high", hashOf(blk.Weights), hashOf(blk.Partials[root]), hashOf(blk.Scale[cum]))
	must(mig.AttachPatterns(false, blk))
	mark("attach low")

	rotated, err := e.CalculateRootLogLikelihoods(root, cum)
	must(err)
	mark("root", bitsOf(rotated)...)

	must(e.Close())
	mark("close")
	return out
}

// TestModeledNumbersGolden runs the six variant cases × {4, 61} states ×
// both precisions and requires every counter, clock, byte and returned bit to
// equal the committed table.
func TestModeledNumbersGolden(t *testing.T) {
	got := map[string][]checkpoint{}
	for _, vc := range variantCases {
		for _, states := range []int{4, 61} {
			for _, single := range []bool{false, true} {
				prec := "double"
				if single {
					prec = "single"
				}
				got[fmt.Sprintf("%s/%d states/%s", vc.name, states, prec)] = goldenRun(t, vc, states, single)
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]checkpoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases run, table has %d", len(got), len(want))
	}
	// Returned bits depend on the architecture's floating point (math.Exp in
	// assembly, fused multiply-add on arm64); the table's are amd64's. The
	// modeled counters are integers computed from the call sequence and must
	// match everywhere.
	exactValues := runtime.GOARCH == "amd64"
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d checkpoints, want %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if !exactValues {
				g[i].Values = w[i].Values
			}
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Errorf("%s after %q:\n got %+v\nwant %+v", name, w[i].Step, g[i], w[i])
			}
		}
	}
}
