// Package seqgen generates the molecular sequence data that drives tests and
// benchmarks: alignments simulated down a phylogenetic tree under a
// substitution model (giving data with realistic signal), genomictest-style
// random synthetic patterns of arbitrary size, and site-pattern compression,
// which converts an alignment's columns into the unique patterns plus weights
// that the likelihood library consumes.
package seqgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// Alignment is a set of aligned sequences over an arbitrary state alphabet,
// one sequence per tree tip, stored as state indices.
type Alignment struct {
	TipNames   []string
	StateCount int
	Sequences  [][]int // [tip][site]
}

// SiteCount returns the number of alignment columns.
func (a *Alignment) SiteCount() int {
	if len(a.Sequences) == 0 {
		return 0
	}
	return len(a.Sequences[0])
}

// EmpiricalFrequencies returns the observed state frequencies with one
// pseudo-count per state, so a state the alignment never shows keeps a
// positive frequency. Gaps and ambiguity codes are not counted.
func (a *Alignment) EmpiricalFrequencies() []float64 {
	counts := make([]float64, a.StateCount)
	var total float64
	for _, seq := range a.Sequences {
		for _, s := range seq {
			if s >= 0 && s < a.StateCount {
				counts[s]++
				total++
			}
		}
	}
	for i := range counts {
		counts[i] = (counts[i] + 1) / (total + float64(a.StateCount))
	}
	return counts
}

// Simulate evolves an alignment of nSites sites down the tree under the given
// substitution model and among-site rate variation. Each site draws a rate
// category from rates.Weights, the root state from the model's stationary
// distribution, and each branch applies P(rate·length).
func Simulate(rng *rand.Rand, t *tree.Tree, m *substmodel.Model, rates *substmodel.SiteRates, nSites int) (*Alignment, error) {
	if nSites <= 0 {
		return nil, errors.New("seqgen: site count must be positive")
	}
	ed, err := m.Eigen()
	if err != nil {
		return nil, err
	}
	n := m.StateCount

	// Precompute a transition matrix per (node, category).
	nc := len(rates.Rates)
	probs := make(map[int][][]float64, t.NodeCount())
	for _, node := range t.Nodes() {
		if node == t.Root {
			continue
		}
		per := make([][]float64, nc)
		for c, r := range rates.Rates {
			p := make([]float64, n*n)
			if err := ed.TransitionMatrix(node.Length*r, p); err != nil {
				return nil, err
			}
			per[c] = p
		}
		probs[node.Index] = per
	}

	a := &Alignment{
		TipNames:   make([]string, t.TipCount),
		StateCount: n,
		Sequences:  make([][]int, t.TipCount),
	}
	for i, tip := range t.Tips() {
		a.TipNames[i] = tip.Name
		a.Sequences[i] = make([]int, nSites)
	}

	states := make([]int, t.NodeCount())
	for site := 0; site < nSites; site++ {
		cat := sampleIndex(rng, rates.Weights)
		states[t.Root.Index] = sampleIndex(rng, m.Frequencies)
		// Pre-order: parent state determines child state.
		var walk func(node *tree.Node)
		walk = func(node *tree.Node) {
			if node != t.Root {
				p := probs[node.Index][cat]
				row := p[states[node.Parent.Index]*n : (states[node.Parent.Index]+1)*n]
				states[node.Index] = sampleIndex(rng, row)
			}
			if node.IsTip() {
				a.Sequences[node.Index][site] = states[node.Index]
				return
			}
			walk(node.Left)
			walk(node.Right)
		}
		walk(t.Root)
	}
	return a, nil
}

// sampleIndex draws an index proportional to the (not necessarily
// normalized) weights.
func sampleIndex(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// RandomAlignment returns an alignment of uniformly random states, matching
// the genomictest program's "random synthetic datasets of arbitrary sizes".
func RandomAlignment(rng *rand.Rand, tipCount, stateCount, nSites int) (*Alignment, error) {
	if tipCount < 2 || stateCount < 2 || nSites <= 0 {
		return nil, errors.New("seqgen: need ≥2 tips, ≥2 states, ≥1 site")
	}
	a := &Alignment{
		TipNames:   make([]string, tipCount),
		StateCount: stateCount,
		Sequences:  make([][]int, tipCount),
	}
	for i := range a.Sequences {
		a.TipNames[i] = fmt.Sprintf("t%d", i)
		seq := make([]int, nSites)
		for s := range seq {
			seq[s] = rng.Intn(stateCount)
		}
		a.Sequences[i] = seq
	}
	return a, nil
}

// PatternSet holds the unique site patterns of an alignment with their
// multiplicities — the working representation for likelihood computation.
type PatternSet struct {
	StateCount int
	TipCount   int
	Patterns   [][]int   // [pattern][tip] state index
	Weights    []float64 // pattern multiplicities
}

// PatternCount returns the number of unique patterns.
func (p *PatternSet) PatternCount() int { return len(p.Patterns) }

// CompressPatterns collapses identical alignment columns into unique
// patterns with weights, sorted lexicographically for determinism.
func CompressPatterns(a *Alignment) *PatternSet {
	nTips := len(a.Sequences)
	counts := make(map[string]int)
	repr := make(map[string][]int)
	var keys []string
	col := make([]int, nTips)
	var sb strings.Builder
	for site := 0; site < a.SiteCount(); site++ {
		sb.Reset()
		for tip := 0; tip < nTips; tip++ {
			col[tip] = a.Sequences[tip][site]
			fmt.Fprintf(&sb, "%d,", col[tip])
		}
		k := sb.String()
		if _, seen := counts[k]; !seen {
			keys = append(keys, k)
			repr[k] = append([]int(nil), col...)
		}
		counts[k]++
	}
	sort.Strings(keys)
	ps := &PatternSet{
		StateCount: a.StateCount,
		TipCount:   nTips,
		Patterns:   make([][]int, len(keys)),
		Weights:    make([]float64, len(keys)),
	}
	for i, k := range keys {
		ps.Patterns[i] = repr[k]
		ps.Weights[i] = float64(counts[k])
	}
	return ps
}

// RandomPatterns returns nPatterns random unique-weight-1 site patterns,
// bypassing compression; this is the configuration used by the paper's
// kernel throughput benchmarks, where the pattern count is the independent
// variable.
func RandomPatterns(rng *rand.Rand, tipCount, stateCount, nPatterns int) (*PatternSet, error) {
	if tipCount < 2 || stateCount < 2 || nPatterns <= 0 {
		return nil, errors.New("seqgen: need ≥2 tips, ≥2 states, ≥1 pattern")
	}
	ps := &PatternSet{
		StateCount: stateCount,
		TipCount:   tipCount,
		Patterns:   make([][]int, nPatterns),
		Weights:    make([]float64, nPatterns),
	}
	for i := range ps.Patterns {
		pat := make([]int, tipCount)
		for j := range pat {
			pat[j] = rng.Intn(stateCount)
		}
		ps.Patterns[i] = pat
		ps.Weights[i] = 1
	}
	return ps, nil
}

// TipStates returns the compact state sequence for one tip across patterns,
// the form consumed by the library's SetTipStates.
func (p *PatternSet) TipStates(tip int) []int {
	out := make([]int, p.PatternCount())
	for i, pat := range p.Patterns {
		out[i] = pat[tip]
	}
	return out
}

// TipPartials returns the expanded partial-likelihood representation of one
// tip (1.0 at the observed state per pattern), the form consumed by
// SetTipPartials. A state index ≥ StateCount denotes full ambiguity (all
// ones, like a gap).
func (p *PatternSet) TipPartials(tip int) []float64 {
	out := make([]float64, p.PatternCount()*p.StateCount)
	for i, pat := range p.Patterns {
		s := pat[tip]
		if s >= p.StateCount {
			for k := 0; k < p.StateCount; k++ {
				out[i*p.StateCount+k] = 1
			}
			continue
		}
		out[i*p.StateCount+s] = 1
	}
	return out
}
