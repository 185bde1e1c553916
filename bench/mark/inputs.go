package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"gobeagle"
	"gobeagle/internal/kernels"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// rng is the harness's own generator (splitmix64), so the inputs a seed
// produces depend on nothing outside this directory — not on math/rand's
// algorithm, not on any generator in the product.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream name): workloads
// and request classes must not share a sequence, or adding a draw to one
// would shift the inputs of another.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ h.Sum64()}
	r.Uint64()
	return r
}

func (r *rng) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 is uniform in [0,1).
func (r *rng) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn is uniform in [0,n).
func (r *rng) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Exp is exponential with mean 1.
func (r *rng) Exp() float64 { return -math.Log(1 - r.Float64()) }

// Range is uniform in [lo,hi).
func (r *rng) Range(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// topologyStream seeds every workload's tree shape. The shape is part of a
// workload's definition, not of its seeded inputs: the mix of tip-tip,
// tip-internal and internal-internal operations and the number of
// dependency levels decide which kernels and how much scheduling an
// evaluation needs, so a shape that changed with -seed would add
// seed-to-seed spread that is not measurement noise. Branch lengths, tip
// data, model parameters and the proposal and request streams are seeded.
const topologyStream = "topology/v1"

// randomNewick joins random lineages until one is left (a Yule shape, like
// tree.Random) and returns the Newick string; shape draws come from topo,
// branch lengths (exponential, mean 0.1, floored at 0.005) from vals.
func randomNewick(topo, vals *rng, tips int) string {
	length := func() string {
		l := 0.1 * vals.Exp()
		if l < 0.005 {
			l = 0.005
		}
		return strconv.FormatFloat(l, 'g', -1, 64)
	}
	lineages := make([]string, tips)
	for i := range lineages {
		lineages[i] = "t" + strconv.Itoa(i) + ":" + length()
	}
	for len(lineages) > 1 {
		i := topo.Intn(len(lineages))
		a := lineages[i]
		lineages[i] = lineages[len(lineages)-1]
		lineages = lineages[:len(lineages)-1]
		j := topo.Intn(len(lineages))
		joined := "(" + a + "," + lineages[j] + ")"
		if len(lineages) > 1 {
			joined += ":" + length()
		}
		lineages[j] = joined
	}
	return lineages[0] + ";"
}

// shape is the problem geometry of a workload.
type shape struct {
	tips, states, patterns, cats int
}

// internalOps is the number of partials operations of one full peel.
func (s shape) internalOps() int { return s.tips - 1 }

// flops is the effective operation count of one full evaluation.
func (s shape) flops() float64 {
	return evalFlops(s.internalOps(), s.patterns, s.cats, s.states)
}

// problem is one generated likelihood problem: tree, data, model, and the
// full evaluation schedule in library buffer indices.
type problem struct {
	shape
	newick    string
	tr        *tree.Tree
	tipStates [][]int // [tip buffer][pattern]

	kappa, omega, alpha float64
	freqs               []float64
	eigVals             []float64
	eigVecs, eigInv     []float64
	rates, catWeights   []float64
	patWeights          []float64

	mats []int
	lens []float64
	ops  []gobeagle.Operation
	root int
}

// modelEigen builds the workload's substitution model (HKY85 for 4 states,
// GY94 for 61) and returns its decomposition flattened for
// SetEigenDecomposition.
func modelEigen(states int, kappa, omega float64, freqs []float64) (vals, vecs, inv []float64, err error) {
	var m *substmodel.Model
	switch states {
	case 4:
		m, err = substmodel.NewHKY85(kappa, freqs)
	case substmodel.CodonStates:
		m, err = substmodel.NewGY94(kappa, omega, freqs)
	default:
		err = fmt.Errorf("no model for %d states", states)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := m.Eigen()
	if err != nil {
		return nil, nil, nil, err
	}
	return e.Values, e.Vectors.Data, e.InverseVectors.Data, nil
}

// fixedTopology is the shape stream every workload's own tree is drawn from
// (see topologyStream); it depends on the tip count only.
func fixedTopology(tips int) *rng { return newRNG(uint64(tips), topologyStream) }

// newProblem generates a problem of the given shape: the tree shape from
// topo, everything else from r.
func newProblem(topo, r *rng, s shape) (*problem, error) {
	p := &problem{shape: s}
	if err := p.setTree(randomNewick(topo, r, s.tips)); err != nil {
		return nil, err
	}
	var err error
	p.tipStates = make([][]int, s.tips)
	for t := range p.tipStates {
		st := make([]int, s.patterns)
		for i := range st {
			st[i] = r.Intn(s.states)
		}
		p.tipStates[t] = st
	}
	p.kappa = r.Range(1.5, 4)
	p.omega = r.Range(0.2, 0.8)
	p.alpha = r.Range(0.3, 1.2)
	p.freqs = make([]float64, s.states)
	var sum float64
	for i := range p.freqs {
		p.freqs[i] = r.Range(0.5, 1.5)
		sum += p.freqs[i]
	}
	for i := range p.freqs {
		p.freqs[i] /= sum
	}
	if p.eigVals, p.eigVecs, p.eigInv, err = modelEigen(s.states, p.kappa, p.omega, p.freqs); err != nil {
		return nil, err
	}
	if s.cats == 1 {
		p.rates, p.catWeights = []float64{1}, []float64{1}
	} else {
		sr, err := substmodel.GammaRates(p.alpha, s.cats)
		if err != nil {
			return nil, err
		}
		p.rates, p.catWeights = sr.Rates, sr.Weights
	}
	p.patWeights = make([]float64, s.patterns)
	for i := range p.patWeights {
		p.patWeights[i] = 1
	}
	return p, nil
}

// setTree parses the Newick string and derives the full schedule from it.
func (p *problem) setTree(newick string) error {
	tr, err := tree.ParseNewick(newick)
	if err != nil {
		return err
	}
	p.newick, p.tr = newick, tr
	sched := tr.FullSchedule()
	p.root = sched.Root
	p.mats, p.lens = nil, nil
	for _, m := range sched.Matrices {
		p.mats = append(p.mats, m.Matrix)
		p.lens = append(p.lens, m.Length)
	}
	p.ops = toOperations(sched.Ops, false)
	return nil
}

// withNewLengths is the same model and alignment on the same tree shape
// with fresh branch lengths from r.
func (p *problem) withNewLengths(r *rng) (*problem, error) {
	q := *p
	if err := q.setTree(randomNewick(fixedTopology(p.tips), r, p.tips)); err != nil {
		return nil, err
	}
	return &q, nil
}

// dims is the kernel-level geometry.
func (s shape) dims() kernels.Dims {
	return kernels.Dims{StateCount: s.states, PatternCount: s.patterns, CategoryCount: s.cats}
}

// toOperations converts a tree schedule to library operations. With scale
// set, operation i rescales into scale buffer i (the per-operation dynamic
// rescaling a deep tree needs).
func toOperations(ops []tree.Op, scale bool) []gobeagle.Operation {
	out := make([]gobeagle.Operation, len(ops))
	for i, op := range ops {
		w := gobeagle.None
		if scale {
			w = i
		}
		out[i] = gobeagle.Operation{
			Destination: op.Dest, DestScaleWrite: w, DestScaleRead: gobeagle.None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	return out
}

// config is the instance geometry for the problem; scaleBuffers 0 disables
// rescaling support.
func (p *problem) config(flags gobeagle.Flags, scaleBuffers int) gobeagle.Config {
	return gobeagle.Config{
		TipCount:        p.tips,
		PartialsBuffers: p.tr.NodeCount(),
		MatrixBuffers:   p.tr.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    scaleBuffers,
		StateCount:      p.states,
		PatternCount:    p.patterns,
		CategoryCount:   p.cats,
		Flags:           flags,
		Threads:         threads(),
	}
}

// loader is the setter half of the library surface, common to
// gobeagle.Instance and engine.Engine, so one load routine serves the
// workloads (public API) and the layer probes (engines directly).
type loader interface {
	SetTipStates(buf int, states []int) error
	SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error
	SetCategoryRates(rates []float64) error
	SetCategoryWeights(weights []float64) error
	SetStateFrequencies(freqs []float64) error
	SetPatternWeights(weights []float64) error
}

// load stores the problem's data and model in a fresh instance or engine.
func (p *problem) load(l loader) error {
	for t, st := range p.tipStates {
		if err := l.SetTipStates(t, st); err != nil {
			return err
		}
	}
	if err := l.SetEigenDecomposition(0, p.eigVals, p.eigVecs, p.eigInv); err != nil {
		return err
	}
	if err := l.SetCategoryRates(p.rates); err != nil {
		return err
	}
	if err := l.SetCategoryWeights(p.catWeights); err != nil {
		return err
	}
	if err := l.SetStateFrequencies(p.freqs); err != nil {
		return err
	}
	return l.SetPatternWeights(p.patWeights)
}

// digest fingerprints everything the product is given for this problem:
// Newick, tip data and model parameters. expected.json pins it for seed 1,
// so a change to the generator cannot silently change what is measured.
func (p *problem) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d %d %d %d\n", p.newick, p.tips, p.states, p.patterns, p.cats)
	fmt.Fprintf(h, "%x %x %x\n", math.Float64bits(p.kappa), math.Float64bits(p.omega), math.Float64bits(p.alpha))
	for _, f := range p.freqs {
		fmt.Fprintf(h, "%x ", math.Float64bits(f))
	}
	row := make([]byte, p.patterns+1)
	row[p.patterns] = '\n'
	for _, st := range p.tipStates {
		for i, s := range st {
			row[i] = byte('0' + s)
		}
		h.Write(row)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
