// Package benchmarks regenerates every table and figure of the paper's
// evaluation (§VI–§VIII). Each experiment builds the same workloads the
// paper describes (genomictest-style random synthetic data), really executes
// the library implementations end-to-end, and reports throughput in
// effective GFLOPS.
//
// Timing sources. CPU-side experiments were measured by the paper on a dual
// Xeon E5-2680v4 (56 hardware threads) and GPU experiments on the Table II
// devices; neither is available here, and the build host may even be a
// single core. Every experiment therefore reports the *modeled* throughput
// of the paper's hardware — derived from the device descriptors through the
// roofline model of internal/device and the CPU threading model of this
// package — while the execution of every configuration is real, so the
// numbers describe code that demonstrably computes correct likelihoods. On
// multicore hosts, `go test -bench` additionally provides raw measured
// timings for the CPU implementations.
package benchmarks

import (
	"fmt"
	"math/rand"

	"gobeagle"
	"gobeagle/internal/flops"
	"gobeagle/internal/kernels"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// Problem is one benchmark workload: a tree, model, rate mixture and
// synthetic pattern set, as produced by the genomictest program.
type Problem struct {
	Tree     *tree.Tree
	Model    *substmodel.Model
	Rates    *substmodel.SiteRates
	Patterns *seqgen.PatternSet
	Dims     kernels.Dims
}

// NewProblem generates a benchmark problem. stateCount 4 builds an HKY85
// nucleotide model, 61 a GY94 codon model, anything else a general
// reversible model with random parameters.
func NewProblem(seed int64, tips, stateCount, patterns, categories int) (*Problem, error) {
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(rng, tips, 0.1)
	if err != nil {
		return nil, err
	}
	var m *substmodel.Model
	switch stateCount {
	case 4:
		m, err = substmodel.NewHKY85(2.5, []float64{0.3, 0.2, 0.25, 0.25})
	case 61:
		m, err = substmodel.NewGY94(2, 0.5, nil)
	case 20:
		m, err = substmodel.NewPoissonAA(nil)
	default:
		rates := make([]float64, stateCount*(stateCount-1)/2)
		for i := range rates {
			rates[i] = 0.2 + rng.Float64()
		}
		freqs := make([]float64, stateCount)
		for i := range freqs {
			freqs[i] = 1 / float64(stateCount)
		}
		m, err = substmodel.NewGeneralReversible("random", rates, freqs)
	}
	if err != nil {
		return nil, err
	}
	var rates *substmodel.SiteRates
	if categories > 1 {
		rates, err = substmodel.GammaRates(0.5, categories)
		if err != nil {
			return nil, err
		}
	} else {
		rates = substmodel.SingleRate()
	}
	ps, err := seqgen.RandomPatterns(rng, tips, stateCount, patterns)
	if err != nil {
		return nil, err
	}
	return &Problem{
		Tree:     tr,
		Model:    m,
		Rates:    rates,
		Patterns: ps,
		Dims: kernels.Dims{
			StateCount:    stateCount,
			PatternCount:  patterns,
			CategoryCount: categories,
		},
	}, nil
}

// InstanceConfig returns a library configuration sized for the problem.
func (p *Problem) InstanceConfig(resourceID int, flags gobeagle.Flags) gobeagle.Config {
	return gobeagle.Config{
		TipCount:        p.Tree.TipCount,
		PartialsBuffers: p.Tree.NodeCount(),
		MatrixBuffers:   p.Tree.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    0,
		StateCount:      p.Dims.StateCount,
		PatternCount:    p.Dims.PatternCount,
		CategoryCount:   p.Dims.CategoryCount,
		ResourceID:      resourceID,
		Flags:           flags,
	}
}

// Load pushes the problem's data into an instance.
func (p *Problem) Load(inst *gobeagle.Instance) error {
	ed, err := p.Model.Eigen()
	if err != nil {
		return err
	}
	steps := []error{
		inst.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		inst.SetCategoryRates(p.Rates.Rates),
		inst.SetCategoryWeights(p.Rates.Weights),
		inst.SetStateFrequencies(p.Model.Frequencies),
		inst.SetPatternWeights(p.Patterns.Weights),
	}
	for _, err := range steps {
		if err != nil {
			return err
		}
	}
	for i := 0; i < p.Tree.TipCount; i++ {
		if err := inst.SetTipStates(i, p.Patterns.TipStates(i)); err != nil {
			return err
		}
	}
	return nil
}

// Schedule returns the full-evaluation schedule in public API form.
func (p *Problem) Schedule() (mats []int, lens []float64, ops []gobeagle.Operation, root int) {
	sched := p.Tree.FullSchedule()
	mats = make([]int, len(sched.Matrices))
	lens = make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	ops = make([]gobeagle.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = gobeagle.Operation{
			Destination: op.Dest, DestScaleWrite: gobeagle.None, DestScaleRead: gobeagle.None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	return mats, lens, ops, sched.Root
}

// OpCount returns the partial-likelihood operations per full evaluation.
func (p *Problem) OpCount() int { return p.Tree.TipCount - 1 }

// FlopsPerEval returns the effective floating-point operations of one full
// evaluation of the partial-likelihoods function over the tree.
func (p *Problem) FlopsPerEval() float64 { return flops.Total(p.Dims, p.OpCount()) }

// Verify evaluates the problem on an instance and checks the result is a
// finite negative log likelihood, guarding every benchmark configuration
// against silently broken execution.
func (p *Problem) Verify(inst *gobeagle.Instance) error {
	mats, lens, ops, root := p.Schedule()
	if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		return err
	}
	if err := inst.UpdatePartials(ops); err != nil {
		return err
	}
	lnL, err := inst.CalculateRootLogLikelihoods(root, gobeagle.None)
	if err != nil {
		return err
	}
	if !(lnL < 0) {
		return fmt.Errorf("benchmarks: suspicious log likelihood %v", lnL)
	}
	return nil
}

// LevelWidths returns the number of independent operations at each
// dependency level of the problem's schedule, the concurrency available to
// the futures threading approach.
func (p *Problem) LevelWidths() []int {
	levels := tree.OpLevels(p.Tree.FullSchedule().Ops)
	w := make([]int, len(levels))
	for i, l := range levels {
		w[i] = len(l)
	}
	return w
}
