package gobeagle_test

import (
	"fmt"
	"log"

	"gobeagle"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// ExampleNewInstance computes the log likelihood of a small phylogenetic
// tree under an HKY85+Γ nucleotide model, driving the library exactly as a
// client program would: build the model, translate the tree into buffer
// indices and an operation list, and integrate at the root.
func ExampleNewInstance() {
	// A four-taxon tree with branch lengths in expected substitutions/site.
	tr, err := tree.ParseNewick("((human:0.1,chimp:0.08):0.05,(mouse:0.3,rat:0.28):0.12);")
	if err != nil {
		log.Fatal(err)
	}

	// An HKY85 model with transition/transversion ratio 2.5 and empirical
	// base frequencies, plus 4 discrete-gamma rate categories (alpha=0.5).
	model, err := substmodel.NewHKY85(2.5, []float64{0.30, 0.20, 0.25, 0.25})
	if err != nil {
		log.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		log.Fatal(err)
	}

	// A tiny alignment over the 4 tips (A=0, C=1, G=2, T=3), one column
	// per site; identical columns would normally be compressed into
	// patterns with weights.
	sites := [][]int{
		// human  chimp  mouse  rat
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{2, 2, 0, 0},
		{3, 3, 3, 1},
		{0, 2, 0, 2},
		{1, 1, 3, 3},
		{2, 2, 2, 2},
		{0, 0, 1, 1},
	}

	// Create an instance on the host CPU with the thread-pool model — the
	// best-performing CPU configuration in the paper.
	inst, err := gobeagle.NewInstance(gobeagle.Config{
		TipCount:        tr.TipCount,
		PartialsBuffers: tr.NodeCount(),
		MatrixBuffers:   tr.NodeCount(),
		EigenBuffers:    1,
		StateCount:      4,
		PatternCount:    len(sites),
		CategoryCount:   4,
		ResourceID:      0,
		Flags:           gobeagle.FlagThreadingThreadPool,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Finalize()
	fmt.Println("implementation:", inst.Implementation())

	// Load the model: eigendecomposition, rates, weights, frequencies.
	ed, err := model.Eigen()
	if err != nil {
		log.Fatal(err)
	}
	must(inst.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data))
	must(inst.SetCategoryRates(rates.Rates))
	must(inst.SetCategoryWeights(rates.Weights))
	must(inst.SetStateFrequencies(model.Frequencies))

	// Load the data: compact states per tip, pattern weights all 1.
	for tip := 0; tip < tr.TipCount; tip++ {
		states := make([]int, len(sites))
		for s, col := range sites {
			states[s] = col[tip]
		}
		must(inst.SetTipStates(tip, states))
	}
	w := make([]float64, len(sites))
	for i := range w {
		w[i] = 1
	}
	must(inst.SetPatternWeights(w))

	// Translate the tree: one transition matrix per branch, one operation
	// per internal node in post-order.
	sched := tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	must(inst.UpdateTransitionMatrices(0, mats, lens))
	ops := make([]gobeagle.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = gobeagle.Operation{
			Destination: op.Dest, DestScaleWrite: gobeagle.None, DestScaleRead: gobeagle.None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	must(inst.UpdatePartials(ops))

	lnL, err := inst.CalculateRootLogLikelihoods(sched.Root, gobeagle.None)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: %s\n", tr.Newick())
	fmt.Printf("log likelihood: %.6f\n", lnL)

	site, err := inst.SiteLogLikelihoods(sched.Root, gobeagle.None)
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range site {
		fmt.Printf("  site %d: %.6f\n", i, l)
	}

	// Output:
	// implementation: CPU-threadpool
	// tree: ((human:0.1,chimp:0.08):0.05,(mouse:0.3,rat:0.28):0.12);
	// log likelihood: -32.225530
	//   site 0: -1.713986
	//   site 1: -2.161931
	//   site 2: -4.619154
	//   site 3: -4.743810
	//   site 4: -6.179532
	//   site 5: -5.069500
	//   site 6: -1.938328
	//   site 7: -5.799288
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
