package engine

import (
	"math"
	"testing"

	"gobeagle/internal/kernels"
)

func validConfig() Config {
	return Config{
		TipCount:        4,
		PartialsBuffers: 7,
		MatrixBuffers:   7,
		EigenBuffers:    2,
		ScaleBuffers:    3,
		Dims:            kernels.Dims{StateCount: 4, PatternCount: 5, CategoryCount: 2},
	}
}

func TestConfigValidate(t *testing.T) {
	good := validConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"tips", func(c *Config) { c.TipCount = 1 }},
		{"partials<tips", func(c *Config) { c.PartialsBuffers = 2 }},
		{"matrices", func(c *Config) { c.MatrixBuffers = 0 }},
		{"eigen", func(c *Config) { c.EigenBuffers = 0 }},
		{"states", func(c *Config) { c.Dims.StateCount = 1 }},
		{"patterns", func(c *Config) { c.Dims.PatternCount = 0 }},
		{"categories", func(c *Config) { c.Dims.CategoryCount = 0 }},
		{"scale", func(c *Config) { c.ScaleBuffers = -1 }},
		{"threads", func(c *Config) { c.Threads = -1 }},
	}
	for _, m := range mutations {
		c := validConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestStorageDefaults(t *testing.T) {
	s := NewStorage[float64](validConfig())
	// Uniform defaults so an instance is usable immediately.
	for _, r := range s.CatRates {
		if r != 1 {
			t.Fatal("default category rates must be 1")
		}
	}
	var wsum, fsum float64
	for _, w := range s.CatWts {
		wsum += w
	}
	for _, f := range s.Freqs {
		fsum += f
	}
	if math.Abs(wsum-1) > 1e-15 || math.Abs(fsum-1) > 1e-15 {
		t.Fatalf("default weights/frequencies not normalized: %v %v", wsum, fsum)
	}
	for _, w := range s.PatWts {
		if w != 1 {
			t.Fatal("default pattern weights must be 1")
		}
	}
}

func TestStorageTipStatesNormalizesGaps(t *testing.T) {
	s := NewStorage[float64](validConfig())
	if err := s.SetTipStates(0, []int{0, 1, 2, 3, 99}); err != nil {
		t.Fatal(err)
	}
	// State 99 (≥ StateCount) is normalized to the gap code 4.
	if s.TipStates[0][4] != 4 {
		t.Fatalf("gap state stored as %d", s.TipStates[0][4])
	}
	if err := s.SetTipStates(0, []int{0, -1, 2, 3, 1}); err == nil {
		t.Fatal("negative state must be rejected")
	}
}

func TestStorageTipPartialsReplicatesCategories(t *testing.T) {
	s := NewStorage[float32](validConfig())
	in := make([]float64, 5*4)
	for i := range in {
		in[i] = float64(i) / 10
	}
	if err := s.SetTipPartials(1, in); err != nil {
		t.Fatal(err)
	}
	p := s.Partials[1]
	if len(p) != 2*5*4 {
		t.Fatalf("partials length %d", len(p))
	}
	for i := range in {
		if p[i] != p[5*4+i] {
			t.Fatal("categories not replicated")
		}
		if math.Abs(float64(p[i])-in[i]) > 1e-7 {
			t.Fatal("conversion error")
		}
	}
}

func TestStorageTipPartialsOverridesStates(t *testing.T) {
	s := NewStorage[float64](validConfig())
	if err := s.SetTipStates(0, []int{0, 1, 2, 3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTipPartials(0, make([]float64, 20)); err != nil {
		t.Fatal(err)
	}
	kind, _, _, err := s.ChildOperand(0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != OperandPartials {
		t.Fatal("expanded representation must win")
	}
}

func TestStorageChildOperand(t *testing.T) {
	s := NewStorage[float64](validConfig())
	if _, _, _, err := s.ChildOperand(0); err == nil {
		t.Fatal("empty buffer must error")
	}
	if err := s.SetTipStates(0, []int{0, 1, 2, 3, 0}); err != nil {
		t.Fatal(err)
	}
	kind, states, _, err := s.ChildOperand(0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != OperandStates || states == nil {
		t.Fatal("compact states not resolved")
	}
	if _, _, _, err := s.ChildOperand(50); err == nil {
		t.Fatal("out-of-range buffer must error")
	}
}

func TestStorageDestPartials(t *testing.T) {
	s := NewStorage[float64](validConfig())
	d, err := s.DestPartials(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != s.Cfg.Dims.PartialsLen() {
		t.Fatalf("allocated length %d", len(d))
	}
	// Tip buffer holding compact states cannot be a destination.
	if err := s.SetTipStates(1, []int{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DestPartials(1); err == nil {
		t.Fatal("states tip must be rejected as a destination")
	}
}

func TestStorageScaleBuffers(t *testing.T) {
	s := NewStorage[float64](validConfig())
	if err := s.ResetScaleFactors(0); err != nil {
		t.Fatal(err)
	}
	buf, err := s.ScaleWriteTarget(1)
	if err != nil {
		t.Fatal(err)
	}
	buf[2] = 7
	if err := s.AccumulateScaleFactors([]int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if s.Scale[2][2] != 7 {
		t.Fatalf("accumulated %v", s.Scale[2])
	}
	// CumulativeScale: None means nil, unwritten errors.
	if sc, err := s.CumulativeScale(None); err != nil || sc != nil {
		t.Fatal("None must resolve to nil scale")
	}
	if _, err := s.CumulativeScale(2); err != nil {
		t.Fatal(err)
	}
	s2 := NewStorage[float64](validConfig())
	if _, err := s2.CumulativeScale(0); err == nil {
		t.Fatal("unwritten scale buffer must error")
	}
	if err := s.AccumulateScaleFactors([]int{9}, 0); err == nil {
		t.Fatal("bad scale index must error")
	}
	// The kernel sums by rows into the cumulative buffer, so it cannot
	// also be a source.
	if err := s.AccumulateScaleFactors([]int{0, 2}, 2); err == nil {
		t.Fatal("cumulative buffer listed as a factor must error")
	}
}

func TestStorageEigenAndMatrices(t *testing.T) {
	s := NewStorage[float64](validConfig())
	vals := []float64{0, -1, -1, -1}
	vecs := make([]float64, 16)
	inv := make([]float64, 16)
	for i := 0; i < 4; i++ {
		vecs[i*4+i] = 1
		inv[i*4+i] = 1
	}
	if err := s.SetEigenDecomposition(0, vals, vecs, inv); err != nil {
		t.Fatal(err)
	}
	if err := s.SetEigenDecomposition(0, vals[:2], vecs, inv); err == nil {
		t.Fatal("short values must error")
	}
	if err := s.UpdateTransitionMatrices(0, []int{0, 1}, []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateTransitionMatrices(0, []int{0}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := s.UpdateTransitionMatrices(0, []int{0}, []float64{-1}); err == nil {
		t.Fatal("negative length must error")
	}
	if err := s.UpdateTransitionMatrices(1, []int{0}, []float64{0.1}); err == nil {
		t.Fatal("empty slot must error")
	}
	m, err := s.GetTransitionMatrix(0)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal eigen system with λ0=0: P(t) rows are exp(λ t) diagonal.
	if math.Abs(m[0]-1) > 1e-12 {
		t.Fatalf("P[0,0]=%v", m[0])
	}
}

func TestStorageOpMatrices(t *testing.T) {
	s := NewStorage[float64](validConfig())
	op := Operation{Child1Mat: 0, Child2Mat: 1}
	if _, _, err := s.OpMatrices(op); err == nil {
		t.Fatal("uncomputed matrices must error")
	}
	if err := s.SetTransitionMatrix(0, make([]float64, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTransitionMatrix(1, make([]float64, 32)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.OpMatrices(op); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.OpMatrices(Operation{Child1Mat: -1}); err == nil {
		t.Fatal("bad index must error")
	}
}

func TestStorageRoundTripsAndErrors(t *testing.T) {
	s := NewStorage[float64](validConfig())
	if err := s.SetPartials(3, make([]float64, 40)); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetPartials(3)
	if err != nil || len(got) != 40 {
		t.Fatalf("round trip failed: %v %d", err, len(got))
	}
	if err := s.SetPartials(3, make([]float64, 39)); err == nil {
		t.Fatal("wrong length must error")
	}
	if _, err := s.GetPartials(4); err == nil {
		t.Fatal("unset buffer must error")
	}
	if err := s.SetCategoryRates([]float64{1}); err == nil {
		t.Fatal("wrong rate count must error")
	}
	if err := s.SetCategoryWeights([]float64{1}); err == nil {
		t.Fatal("wrong weight count must error")
	}
	if err := s.SetStateFrequencies([]float64{1}); err == nil {
		t.Fatal("wrong frequency count must error")
	}
	if err := s.SetPatternWeights([]float64{1}); err == nil {
		t.Fatal("wrong pattern weight count must error")
	}
	if err := s.SetTransitionMatrix(0, make([]float64, 5)); err == nil {
		t.Fatal("wrong matrix length must error")
	}
}

func TestStorageUpdateTransitionDerivatives(t *testing.T) {
	s := NewStorage[float64](validConfig())
	vals := []float64{0, -1, -2, -3}
	vecs := make([]float64, 16)
	inv := make([]float64, 16)
	for i := 0; i < 4; i++ {
		vecs[i*4+i] = 1
		inv[i*4+i] = 1
	}
	if err := s.SetEigenDecomposition(0, vals, vecs, inv); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateTransitionDerivatives(0, []int{0}, []int{1}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	// Diagonal system: dP/dt diagonal entries are λ·exp(λt) per category
	// (rates default to 1).
	d1, err := s.GetTransitionMatrix(0)
	if err != nil {
		t.Fatal(err)
	}
	want := -1 * math.Exp(-0.5)
	if math.Abs(d1[1*4+1]-want) > 1e-12 {
		t.Fatalf("dP/dt[1,1]=%v want %v", d1[5], want)
	}
	d2, err := s.GetTransitionMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2[1*4+1]-math.Exp(-0.5)) > 1e-12 {
		t.Fatalf("d2P/dt2[1,1]=%v", d2[5])
	}
	// Error paths.
	if err := s.UpdateTransitionDerivatives(0, []int{0}, nil, []float64{0.1, 0.2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := s.UpdateTransitionDerivatives(0, []int{0, 1}, []int{2}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("d2 count mismatch must error")
	}
	if err := s.UpdateTransitionDerivatives(0, []int{0}, nil, []float64{-1}); err == nil {
		t.Fatal("negative length must error")
	}
	if err := s.UpdateTransitionDerivatives(1, []int{0}, nil, []float64{0.1}); err == nil {
		t.Fatal("empty slot must error")
	}
	if err := s.UpdateTransitionDerivatives(9, []int{0}, nil, []float64{0.1}); err == nil {
		t.Fatal("bad slot must error")
	}
	if err := s.UpdateTransitionDerivatives(0, []int{99}, nil, []float64{0.1}); err == nil {
		t.Fatal("bad matrix index must error")
	}
}

func TestStorageSetterSuccessPaths(t *testing.T) {
	s := NewStorage[float64](validConfig())
	if err := s.SetCategoryRates([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCategoryWeights([]float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetStateFrequencies([]float64{0.1, 0.2, 0.3, 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPatternWeights([]float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if s.CatRates[1] != 2 || s.CatWts[1] != 0.7 || s.Freqs[3] != 0.4 || s.PatWts[4] != 5 {
		t.Fatal("setters did not store values")
	}
	// ResetScaleFactors zeroes an existing buffer too.
	buf, _ := s.ScaleWriteTarget(0)
	buf[1] = 9
	if err := s.ResetScaleFactors(0); err != nil {
		t.Fatal(err)
	}
	if s.Scale[0][1] != 0 {
		t.Fatal("reset did not zero")
	}
	if err := s.ResetScaleFactors(99); err == nil {
		t.Fatal("bad scale index must error")
	}
	if _, err := s.GetTransitionMatrix(99); err == nil {
		t.Fatal("bad matrix index must error")
	}
}
