package accelimpl

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// TestAccelSurfaceParityWithCPU drives the remaining API surface — partials
// and matrix round trips, per-site log likelihoods, edge likelihoods and
// edge derivatives — on a simulated device and checks exact agreement with
// the CPU serial engine.
func TestAccelSurfaceParityWithCPU(t *testing.T) {
	device.ResetPlatforms()
	rng := rand.New(rand.NewSource(91))
	tr, err := tree.ParseNewick("((a:0.1,b:0.2):0.07,(c:0.15,d:0.05):0.09);")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	rates, _ := substmodel.GammaRates(0.7, 2)
	align, _ := seqgen.Simulate(rng, tr, m, rates, 200)
	ps := seqgen.CompressPatterns(align)

	cfg := testConfig(tr, 4, ps.PatternCount(), 2, false)
	cfg.MatrixBuffers = 12
	dev, _ := device.FindDevice(device.OpenCL, "FirePro S9170")
	acc, err := New(cfg, OpenCLGPU, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()
	cpu, err := cpuimpl.New(cfg, cpuimpl.Serial)
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Close()

	if !strings.Contains(acc.Name(), "OpenCL-GPU") {
		t.Fatalf("name %q", acc.Name())
	}

	// Drive both with expanded tips (needed for edge calls on tips).
	for _, e := range []engine.Engine{acc, cpu} {
		driveEngine(t, e, tr, m, rates, ps, false, false)
	}

	// GetPartials parity at the root.
	root := tr.Root.Index
	pa, err := acc.GetPartials(root)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cpu.GetPartials(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if math.Abs(pa[i]-pc[i]) > 1e-12 {
			t.Fatalf("partials mismatch at %d: %v vs %v", i, pa[i], pc[i])
		}
	}

	// SetPartials/GetPartials round trip on a spare buffer index.
	in := make([]float64, cfg.Dims.PartialsLen())
	for i := range in {
		in[i] = rng.Float64()
	}
	if err := acc.SetPartials(root, in); err != nil {
		t.Fatal(err)
	}
	out, err := acc.GetPartials(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("partials round trip mismatch at %d", i)
		}
	}
	// Restore computed state for the likelihood checks below.
	driveEngine(t, acc, tr, m, rates, ps, false, false)

	// SetTransitionMatrix/GetTransitionMatrix round trip.
	mat := make([]float64, cfg.Dims.MatrixLen())
	for i := range mat {
		mat[i] = rng.Float64()
	}
	if err := acc.SetTransitionMatrix(9, mat); err != nil {
		t.Fatal(err)
	}
	back, err := acc.GetTransitionMatrix(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mat {
		if mat[i] != back[i] {
			t.Fatalf("matrix round trip mismatch at %d", i)
		}
	}

	// SiteLogLikelihoods parity.
	sa, err := acc.SiteLogLikelihoods(root, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := cpu.SiteLogLikelihoods(root, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if math.Abs(sa[i]-sc[i]) > 1e-10 {
			t.Fatalf("site lnL mismatch at %d: %v vs %v", i, sa[i], sc[i])
		}
	}

	// Edge log likelihood parity across the root's joined branch.
	joined := tr.Root.Left.Length + tr.Root.Right.Length
	for _, e := range []engine.Engine{acc, cpu} {
		if err := e.UpdateTransitionMatrices(0, []int{10}, []float64{joined}); err != nil {
			t.Fatal(err)
		}
	}
	la, err := acc.CalculateEdgeLogLikelihoods(tr.Root.Left.Index, tr.Root.Right.Index, 10, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := cpu.CalculateEdgeLogLikelihoods(tr.Root.Left.Index, tr.Root.Right.Index, 10, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(la-lc) > 1e-10*math.Abs(lc) {
		t.Fatalf("edge lnL %v vs %v", la, lc)
	}

	// Edge derivatives parity.
	for _, e := range []engine.Engine{acc, cpu} {
		if err := e.UpdateTransitionDerivatives(0, []int{11}, []int{8}, []float64{joined}); err != nil {
			t.Fatal(err)
		}
	}
	lnA, d1A, d2A, err := acc.CalculateEdgeDerivatives(tr.Root.Left.Index, tr.Root.Right.Index, 10, 11, 8, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	lnC, d1C, d2C, err := cpu.CalculateEdgeDerivatives(tr.Root.Left.Index, tr.Root.Right.Index, 10, 11, 8, engine.None)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lnA-lnC) > 1e-10*math.Abs(lnC) ||
		math.Abs(d1A-d1C) > 1e-9*(1+math.Abs(d1C)) ||
		math.Abs(d2A-d2C) > 1e-9*(1+math.Abs(d2C)) {
		t.Fatalf("edge derivatives (%v %v %v) vs CPU (%v %v %v)", lnA, d1A, d2A, lnC, d1C, d2C)
	}
}

// storeBackend is one kind of store-backed engine the contract below is held
// to: the serial CPU reference and each accelerator variant.
type storeBackend struct {
	name string
	new  func(t *testing.T, cfg engine.Config) engine.Engine
}

func storeBackends() []storeBackend {
	out := []storeBackend{{"CPU-serial", func(t *testing.T, cfg engine.Config) engine.Engine {
		e, err := cpuimpl.New(cfg, cpuimpl.Serial)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}}}
	for _, i := range []int{0, 2, 4} { // one device per variant: CUDA, OpenCL-GPU, OpenCL-x86
		vc := variantCases[i]
		out = append(out, storeBackend{vc.name, func(t *testing.T, cfg engine.Config) engine.Engine {
			return newCase(t, vc, cfg)
		}})
	}
	return out
}

// Geometry of the contract engines: four tips (so buffers 4–6 are internal),
// spare matrices 6–9 that are never computed, a second eigen slot that is never
// filled, four scale buffers.
const (
	contractPatterns = 10
	contractCats     = 2
)

// contractEngine returns a loaded engine that has not run a batch: tips 0 and
// 1 hold compact states, tips 2 and 3 expanded partials, matrices 0–5 are
// computed, internal buffers and every scale buffer are untouched.
func contractEngine(t *testing.T, b storeBackend) engine.Engine {
	t.Helper()
	device.ResetPlatforms()
	cfg := engine.Config{
		TipCount: 4, PartialsBuffers: 7, MatrixBuffers: 10, EigenBuffers: 2, ScaleBuffers: 4,
		Dims: kernels.Dims{StateCount: 4, PatternCount: contractPatterns, CategoryCount: contractCats},
	}
	e := b.new(t, cfg)
	t.Cleanup(func() { e.Close() })
	m, _ := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	rates, _ := substmodel.GammaRates(0.5, contractCats)
	ps, _ := seqgen.RandomPatterns(rand.New(rand.NewSource(92)), 4, 4, contractPatterns)
	for _, err := range []error{
		e.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		e.SetCategoryRates(rates.Rates),
		e.SetCategoryWeights(rates.Weights),
		e.SetTipStates(0, ps.TipStates(0)),
		e.SetTipStates(1, ps.TipStates(1)),
		e.SetTipPartials(2, ps.TipPartials(2)),
		e.SetTipPartials(3, ps.TipPartials(3)),
		e.UpdateTransitionMatrices(0, []int{0, 1, 2, 3, 4, 5}, []float64{0.1, 0.2, 0.3, 0.1, 0.2, 0.3}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// contractOp is an operation whose matrices are its children's own.
func contractOp(dest, c1, c2 int) engine.Operation {
	return engine.Operation{Dest: dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
		Child1: c1, Child1Mat: c1, Child2: c2, Child2Mat: c2}
}

// contractStep is one call and whether every backend must refuse it.
type contractStep struct {
	what   string
	call   func(e engine.Engine) error
	reject bool
}

// contractCases is the accept/reject contract of the shared store as seen
// through an engine; each case runs its steps in order on a fresh
// contractEngine.
func contractCases() map[string][]contractStep {
	const none = engine.None
	batch := func(ops ...engine.Operation) func(engine.Engine) error {
		return func(e engine.Engine) error { return e.UpdatePartials(ops) }
	}
	with := func(op engine.Operation, edit func(*engine.Operation)) engine.Operation {
		edit(&op)
		return op
	}
	root := func(buf, cum int) func(engine.Engine) error {
		return func(e engine.Engine) error { _, err := e.SiteLogLikelihoods(buf, cum); return err }
	}
	states, tipPartials := make([]int, contractPatterns), make([]float64, contractPatterns*4)
	partials, matrix := make([]float64, contractCats*contractPatterns*4), make([]float64, contractCats*16)
	cases := map[string][]contractStep{
		"destination holds compact tip states":   {{"op into tip 0", batch(contractOp(0, 2, 3)), true}},
		"uncomputed matrix":                      {{"op through matrix 8", batch(with(contractOp(4, 0, 1), func(op *engine.Operation) { op.Child2Mat = 8 })), true}},
		"child with no data":                     {{"op reading buffer 5", batch(contractOp(4, 5, 1)), true}},
		"child computed by a later listed op":    {{"parent before child", batch(contractOp(5, 4, 2), contractOp(4, 0, 1)), true}},
		"child computed by an earlier listed op": {{"child before parent", batch(contractOp(4, 0, 1), contractOp(5, 4, 2)), false}},
		"read-scale of an unwritten buffer":      {{"read 2", batch(with(contractOp(4, 0, 1), func(op *engine.Operation) { op.DestScaleRead = 2 })), true}},
		"read-scale of a buffer an earlier listed op rescales into": {{"write 0 then read 0", batch(
			with(contractOp(4, 0, 1), func(op *engine.Operation) { op.DestScaleWrite = 0 }),
			with(contractOp(5, 2, 3), func(op *engine.Operation) { op.DestScaleRead = 0 })), false}},
		"tip states after tip partials and back": {
			{"root on expanded tip 2", root(2, none), false},
			{"compact states over it", func(e engine.Engine) error { return e.SetTipStates(2, states) }, false},
			{"root on compact tip 2", root(2, none), true},
			{"op into compact tip 2", batch(contractOp(2, 0, 1)), true},
			{"partials over it", func(e engine.Engine) error { return e.SetTipPartials(2, tipPartials) }, false},
			{"root on expanded tip 2 again", root(2, none), false},
			{"op into expanded tip 2", batch(contractOp(2, 0, 1)), false},
		},
		"wrong lengths": {
			{"SetTipStates", func(e engine.Engine) error { return e.SetTipStates(0, states[:3]) }, true},
			{"SetTipPartials", func(e engine.Engine) error { return e.SetTipPartials(0, tipPartials[:3]) }, true},
			{"SetPartials", func(e engine.Engine) error { return e.SetPartials(0, partials[:3]) }, true},
			{"SetTransitionMatrix", func(e engine.Engine) error { return e.SetTransitionMatrix(0, matrix[:3]) }, true},
			{"SetCategoryRates", func(e engine.Engine) error { return e.SetCategoryRates([]float64{1}) }, true},
			{"UpdateTransitionMatrices", func(e engine.Engine) error { return e.UpdateTransitionMatrices(0, []int{0, 1}, []float64{0.1}) }, true},
			{"negative edge length", func(e engine.Engine) error { return e.UpdateTransitionMatrices(0, []int{0}, []float64{-0.1}) }, true},
		},
		"unset buffers": {
			{"matrices from empty eigen slot 1", func(e engine.Engine) error { return e.UpdateTransitionMatrices(1, []int{0}, []float64{0.1}) }, true},
			{"derivatives from empty eigen slot 1", func(e engine.Engine) error {
				return e.UpdateTransitionDerivatives(1, []int{6}, nil, []float64{0.1})
			}, true},
			{"root on internal buffer 4", root(4, none), true},
			{"GetPartials 4", func(e engine.Engine) error { _, err := e.GetPartials(4); return err }, true},
			{"GetTransitionMatrix 8", func(e engine.Engine) error { _, err := e.GetTransitionMatrix(8); return err }, true},
			{"root with unwritten cumulative buffer", root(2, 1), true},
			{"accumulate an unwritten buffer", func(e engine.Engine) error { return e.AccumulateScaleFactors([]int{1}, 0) }, true},
			{"edge on compact tips", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(0, 1, 0, none); return err }, true},
			{"edge through uncomputed matrix", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(2, 3, 8, none); return err }, true},
			{"edge on expanded tips", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(2, 3, 0, none); return err }, false},
			{"derivatives through uncomputed matrices", func(e engine.Engine) error {
				_, _, _, err := e.CalculateEdgeDerivatives(2, 3, 0, 8, none, none)
				return err
			}, true},
		},
	}
	// An out-of-range index on every method, one call per indexed argument.
	const bad = 99
	var outOfRange []contractStep
	add := func(what string, call func(e engine.Engine) error) {
		outOfRange = append(outOfRange, contractStep{what, call, true})
	}
	add("SetTipStates", func(e engine.Engine) error { return e.SetTipStates(bad, states) })
	add("SetTipStates on an internal buffer", func(e engine.Engine) error { return e.SetTipStates(4, states) })
	add("SetTipPartials", func(e engine.Engine) error { return e.SetTipPartials(-1, tipPartials) })
	add("SetPartials", func(e engine.Engine) error { return e.SetPartials(bad, partials) })
	add("GetPartials", func(e engine.Engine) error { _, err := e.GetPartials(bad); return err })
	add("SetEigenDecomposition", func(e engine.Engine) error {
		return e.SetEigenDecomposition(bad, make([]float64, 4), make([]float64, 16), make([]float64, 16))
	})
	add("SetTransitionMatrix", func(e engine.Engine) error { return e.SetTransitionMatrix(bad, matrix) })
	add("GetTransitionMatrix", func(e engine.Engine) error { _, err := e.GetTransitionMatrix(-1); return err })
	add("UpdateTransitionMatrices eigen", func(e engine.Engine) error { return e.UpdateTransitionMatrices(bad, []int{0}, []float64{0.1}) })
	add("UpdateTransitionMatrices matrix", func(e engine.Engine) error { return e.UpdateTransitionMatrices(0, []int{bad}, []float64{0.1}) })
	add("UpdateTransitionDerivatives eigen", func(e engine.Engine) error { return e.UpdateTransitionDerivatives(bad, []int{6}, nil, []float64{0.1}) })
	add("UpdateTransitionDerivatives d1", func(e engine.Engine) error { return e.UpdateTransitionDerivatives(0, []int{bad}, nil, []float64{0.1}) })
	add("UpdateTransitionDerivatives d2", func(e engine.Engine) error {
		return e.UpdateTransitionDerivatives(0, []int{6}, []int{bad}, []float64{0.1})
	})
	for field, edit := range map[string]func(*engine.Operation){
		"Dest":           func(op *engine.Operation) { op.Dest = bad },
		"Child1":         func(op *engine.Operation) { op.Child1 = -2 },
		"Child2":         func(op *engine.Operation) { op.Child2 = bad },
		"Child1Mat":      func(op *engine.Operation) { op.Child1Mat = bad },
		"Child2Mat":      func(op *engine.Operation) { op.Child2Mat = -2 },
		"DestScaleWrite": func(op *engine.Operation) { op.DestScaleWrite = bad },
		"DestScaleRead":  func(op *engine.Operation) { op.DestScaleRead = bad },
	} {
		add("UpdatePartials "+field, batch(with(contractOp(4, 0, 1), edit)))
	}
	add("ResetScaleFactors", func(e engine.Engine) error { return e.ResetScaleFactors(bad) })
	add("AccumulateScaleFactors source", func(e engine.Engine) error { return e.AccumulateScaleFactors([]int{bad}, 0) })
	add("AccumulateScaleFactors target", func(e engine.Engine) error { return e.AccumulateScaleFactors(nil, bad) })
	add("CalculateRootLogLikelihoods root", func(e engine.Engine) error { _, err := e.CalculateRootLogLikelihoods(bad, none); return err })
	add("CalculateRootLogLikelihoods scale", func(e engine.Engine) error { _, err := e.CalculateRootLogLikelihoods(2, bad); return err })
	add("SiteLogLikelihoods", root(bad, none))
	add("CalculateEdgeLogLikelihoods parent", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(bad, 3, 0, none); return err })
	add("CalculateEdgeLogLikelihoods child", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(2, bad, 0, none); return err })
	add("CalculateEdgeLogLikelihoods matrix", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(2, 3, bad, none); return err })
	add("CalculateEdgeLogLikelihoods scale", func(e engine.Engine) error { _, err := e.CalculateEdgeLogLikelihoods(2, 3, 0, bad); return err })
	add("CalculateEdgeDerivatives d1", func(e engine.Engine) error {
		_, _, _, err := e.CalculateEdgeDerivatives(2, 3, 0, bad, none, none)
		return err
	})
	add("CalculateEdgeDerivatives d2", func(e engine.Engine) error {
		_, _, _, err := e.CalculateEdgeDerivatives(2, 3, 0, 1, bad, none)
		return err
	})
	cases["index out of range"] = outOfRange
	return cases
}

// TestAccelSurfaceErrors holds every store-backed engine — the serial CPU
// reference and the three accelerator variants — to one accept/reject
// contract: the store they share decides, so no backend may differ.
func TestAccelSurfaceErrors(t *testing.T) {
	for _, b := range storeBackends() {
		for name, steps := range contractCases() {
			t.Run(b.name+"/"+name, func(t *testing.T) {
				e := contractEngine(t, b)
				for _, st := range steps {
					if err := st.call(e); (err != nil) != st.reject {
						t.Errorf("%s: err = %v, want rejected = %v", st.what, err, st.reject)
					}
				}
			})
		}
	}
}

// TestUseAfterClose mirrors cpuimpl's test of the same name on the store's
// whole surface: Close is idempotent and afterwards every computation,
// setter, getter and migration method returns the shared sentinel rather than
// touching released buffers.
func TestUseAfterClose(t *testing.T) {
	for _, b := range storeBackends() {
		t.Run(b.name, func(t *testing.T) {
			e := contractEngine(t, b)
			if err := e.UpdatePartials([]engine.Operation{contractOp(4, 0, 1)}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := e.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			const none = engine.None
			states, tipPartials := make([]int, contractPatterns), make([]float64, contractPatterns*4)
			partials, matrix := make([]float64, contractCats*contractPatterns*4), make([]float64, contractCats*16)
			mig := e.(engine.PatternMigrator)
			for what, call := range map[string]func() error{
				"SetTipStates":   func() error { return e.SetTipStates(0, states) },
				"SetTipPartials": func() error { return e.SetTipPartials(0, tipPartials) },
				"SetPartials":    func() error { return e.SetPartials(4, partials) },
				"GetPartials":    func() error { _, err := e.GetPartials(4); return err },
				"SetEigenDecomposition": func() error {
					return e.SetEigenDecomposition(0, make([]float64, 4), make([]float64, 16), make([]float64, 16))
				},
				"SetCategoryRates":            func() error { return e.SetCategoryRates([]float64{1, 1}) },
				"SetCategoryWeights":          func() error { return e.SetCategoryWeights([]float64{0.5, 0.5}) },
				"SetStateFrequencies":         func() error { return e.SetStateFrequencies([]float64{0.25, 0.25, 0.25, 0.25}) },
				"SetPatternWeights":           func() error { return e.SetPatternWeights(make([]float64, contractPatterns)) },
				"SetTransitionMatrix":         func() error { return e.SetTransitionMatrix(0, matrix) },
				"GetTransitionMatrix":         func() error { _, err := e.GetTransitionMatrix(0); return err },
				"UpdateTransitionMatrices":    func() error { return e.UpdateTransitionMatrices(0, []int{0}, []float64{0.1}) },
				"UpdateTransitionDerivatives": func() error { return e.UpdateTransitionDerivatives(0, []int{6}, []int{7}, []float64{0.1}) },
				"UpdatePartials":              func() error { return e.UpdatePartials([]engine.Operation{contractOp(4, 0, 1)}) },
				"UpdatePartials, empty batch": func() error { return e.UpdatePartials(nil) },
				"ResetScaleFactors":           func() error { return e.ResetScaleFactors(0) },
				"AccumulateScaleFactors":      func() error { return e.AccumulateScaleFactors(nil, 0) },
				"CalculateRootLogLikelihoods": func() error { _, err := e.CalculateRootLogLikelihoods(4, none); return err },
				"SiteLogLikelihoods":          func() error { _, err := e.SiteLogLikelihoods(4, none); return err },
				"CalculateEdgeLogLikelihoods": func() error { _, err := e.CalculateEdgeLogLikelihoods(2, 3, 0, none); return err },
				"CalculateEdgeDerivatives":    func() error { _, _, _, err := e.CalculateEdgeDerivatives(2, 3, 0, 1, none, none); return err },
				"DetachPatterns":              func() error { _, err := mig.DetachPatterns(true, 2); return err },
				"AttachPatterns":              func() error { return mig.AttachPatterns(true, &engine.PatternBlock{Patterns: 1}) },
			} {
				if err := call(); !errors.Is(err, engine.ErrClosed) {
					t.Errorf("%s after Close = %v, want engine.ErrClosed", what, err)
				}
			}
		})
	}
	if !errors.Is(cpuimpl.ErrClosed, engine.ErrClosed) {
		t.Error("cpuimpl.ErrClosed is not the shared sentinel")
	}
}
