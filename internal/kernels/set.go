package kernels

// Kernel families a Set can hold.
const (
	FamilyGeneric   = "generic"
	FamilyUnrolled4 = "unrolled4"
	FamilyWide      = "wide"
)

// Set is the partial-likelihoods kernel family an implementation binds once
// at construction, one kernel per operand combination. Which family applies
// is a property of the problem (its state count), not of how the
// implementation partitions or schedules the work.
type Set[T Real] struct {
	// Family names the bound kernels (FamilyGeneric, FamilyUnrolled4,
	// FamilyWide).
	Family           string
	PartialsPartials func(dest, p1, m1, p2, m2 []T, d Dims, lo, hi int)
	StatesPartials   func(dest []T, s1 []int32, m1 []T, p2, m2 []T, d Dims, lo, hi int)
	StatesStates     func(dest []T, s1 []int32, m1 []T, s2 []int32, m2 []T, d Dims, lo, hi int)
}

// Generic returns the loop-over-states kernels, valid for every state count.
func Generic[T Real]() Set[T] {
	return Set[T]{
		Family:           FamilyGeneric,
		PartialsPartials: PartialsPartials[T],
		StatesPartials:   StatesPartials[T],
		StatesStates:     StatesStates[T],
	}
}

// ForStateCount is the state-count table: the kernels specialised for
// stateCount where a specialisation exists, the generic kernels otherwise.
// The wide family is entered only where VecMatT runs as assembly — on its
// portable body it is no faster than the generic loop — so the choice is a
// function of the state count and the CPU, and of nothing else; it computes
// the generic kernels' results bit for bit.
func ForStateCount[T Real](stateCount int) Set[T] {
	switch {
	case stateCount == 4:
		return Set[T]{
			Family:           FamilyUnrolled4,
			PartialsPartials: PartialsPartials4[T],
			StatesPartials:   StatesPartials4[T],
			StatesStates:     StatesStates4[T],
		}
	case isWide(stateCount) && vecMatAccelerated:
		return Set[T]{
			Family:           FamilyWide,
			PartialsPartials: PartialsPartialsWide[T],
			StatesPartials:   StatesPartialsWide[T],
			StatesStates:     StatesStates[T], // not yet specialised for wide state counts
		}
	}
	return Generic[T]()
}
