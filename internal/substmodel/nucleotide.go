package substmodel

import (
	"errors"
	"fmt"
)

// NucleotideStates is the number of states in a DNA model, ordered A, C, G, T.
const NucleotideStates = 4

// Nucleotide state indices.
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
)

// isTransition reports whether a substitution between two nucleotide states
// is a transition (purine↔purine or pyrimidine↔pyrimidine).
func isTransition(i, j int) bool {
	return (i == BaseA && j == BaseG) || (i == BaseG && j == BaseA) ||
		(i == BaseC && j == BaseT) || (i == BaseT && j == BaseC)
}

// NewJC69 returns the Jukes–Cantor (1969) model: equal frequencies and equal
// exchangeabilities.
func NewJC69() *Model {
	m, err := NewGeneralReversible("JC69",
		[]float64{1, 1, 1, 1, 1, 1},
		[]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		//beagle:allow panic literal JC69 rates and frequencies are valid by construction; NewGeneralReversible cannot reject them
		panic(err)
	}
	return m
}

// NewK80 returns the Kimura (1980) two-parameter model with
// transition/transversion ratio kappa and equal frequencies.
func NewK80(kappa float64) (*Model, error) {
	if kappa <= 0 {
		return nil, errors.New("substmodel: kappa must be positive")
	}
	// Upper-triangle order: AC, AG, AT, CG, CT, GT.
	rates := []float64{1, kappa, 1, 1, kappa, 1}
	m, err := NewGeneralReversible("K80", rates, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewHKY85 returns the Hasegawa–Kishino–Yano (1985) model with
// transition/transversion ratio kappa and arbitrary base frequencies
// (A, C, G, T order).
func NewHKY85(kappa float64, freqs []float64) (*Model, error) {
	if kappa <= 0 {
		return nil, errors.New("substmodel: kappa must be positive")
	}
	if len(freqs) != NucleotideStates {
		return nil, fmt.Errorf("substmodel: HKY85 needs 4 frequencies, got %d", len(freqs))
	}
	rates := []float64{1, kappa, 1, 1, kappa, 1}
	m, err := NewGeneralReversible("HKY85", rates, freqs)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewGTR returns the general time-reversible nucleotide model. The six
// exchangeabilities are in upper-triangle order AC, AG, AT, CG, CT, GT, and
// frequencies in A, C, G, T order.
func NewGTR(rates, freqs []float64) (*Model, error) {
	if len(rates) != 6 {
		return nil, fmt.Errorf("substmodel: GTR needs 6 exchangeabilities, got %d", len(rates))
	}
	if len(freqs) != NucleotideStates {
		return nil, fmt.Errorf("substmodel: GTR needs 4 frequencies, got %d", len(freqs))
	}
	m, err := NewGeneralReversible("GTR", rates, freqs)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewNucleotide returns the nucleotide model a command line names: jc
// (JC69), k80, hky (HKY85) or gtr. kappa is read by k80 and hky, freqs by
// hky and gtr, and rates, the six GTR exchangeabilities, by gtr alone.
func NewNucleotide(name string, kappa float64, rates, freqs []float64) (*Model, error) {
	switch name {
	case "jc":
		return NewJC69(), nil
	case "k80":
		return NewK80(kappa)
	case "hky":
		return NewHKY85(kappa, freqs)
	case "gtr":
		return NewGTR(rates, freqs)
	}
	return nil, fmt.Errorf("substmodel: unknown nucleotide model %q (want jc, k80, hky or gtr)", name)
}
