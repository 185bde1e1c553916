package kernels

// Kernel families a Set can hold.
const (
	FamilyGeneric   = "generic"
	FamilyUnrolled4 = "unrolled4"
)

// Set is the partial-likelihoods kernel family an implementation binds once
// at construction, one kernel per operand combination. Which family applies
// is a property of the problem (its state count), not of how the
// implementation partitions or schedules the work.
type Set[T Real] struct {
	// Family names the bound kernels (FamilyGeneric, FamilyUnrolled4).
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
func ForStateCount[T Real](stateCount int) Set[T] {
	switch stateCount {
	case 4:
		return Set[T]{
			Family:           FamilyUnrolled4,
			PartialsPartials: PartialsPartials4[T],
			StatesPartials:   StatesPartials4[T],
			StatesStates:     StatesStates4[T],
		}
	}
	return Generic[T]()
}
