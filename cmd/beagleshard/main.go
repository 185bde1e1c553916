// Command beagleshard drives a distributed pattern-sharded instance against
// a set of beagleworker processes and verifies, iteration by iteration, that
// its root and per-site log-likelihoods are BIT-IDENTICAL to a single-node
// instance evaluating the same problem. It is the distributed
// correctness smoke test: CI boots two workers on loopback, runs it, kills a
// worker mid-run and requires the comparison to keep holding through the
// journal-replay failover.
//
//	beagleshard -workers 127.0.0.1:8381,127.0.0.1:8382 -iters 50
//	beagleshard -workers $A,$B -expect-failover -pause 100ms -trace shard.json
//
// Exit status 0 means every iteration matched exactly (and, with
// -expect-failover, that at least one worker failed over to its local
// fallback mid-run).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"gobeagle"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beagleshard:", err)
	os.Exit(1)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func main() {
	var (
		workersArg = flag.String("workers", "", "comma-separated beagleworker addresses (required)")
		tips       = flag.Int("tips", 24, "taxa in the simulated tree")
		sites      = flag.Int("sites", 2000, "simulated alignment length before pattern compression")
		cats       = flag.Int("categories", 4, "gamma rate categories")
		iters      = flag.Int("iters", 50, "evaluation iterations (each rescales every branch and re-peels)")
		seed       = flag.Int64("seed", 42, "random seed")
		local      = flag.Bool("local", true, "keep a local host-CPU shard beside the workers")
		rebalance  = flag.Bool("rebalance", false, "enable the hierarchical EWMA rebalancer")
		pause      = flag.Duration("pause", 0, "sleep between iterations (stretches the run so a harness can kill a worker mid-flight)")
		expectFail = flag.Bool("expect-failover", false, "require at least one worker to have failed over by the end")
		tracePath  = flag.String("trace", "", "write the distributed instance's Chrome trace-event JSON to this file")
	)
	flag.Parse()
	if *workersArg == "" {
		flag.Usage()
		os.Exit(2)
	}
	workers := strings.Split(*workersArg, ",")

	rng := rand.New(rand.NewSource(*seed))
	tr, err := tree.Random(rng, *tips, 0.15)
	check(err)
	m, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.25, 0.25})
	check(err)
	rates, err := substmodel.GammaRates(0.6, *cats)
	check(err)
	align, err := seqgen.Simulate(rng, tr, m, rates, *sites)
	check(err)
	ps := seqgen.CompressPatterns(align)
	fmt.Printf("problem: %d tips, %d sites, %d unique patterns, %d categories\n",
		*tips, *sites, ps.PatternCount(), *cats)

	cfg := gobeagle.Config{
		TipCount:        tr.TipCount,
		PartialsBuffers: tr.NodeCount(),
		MatrixBuffers:   tr.NodeCount(),
		EigenBuffers:    1,
		ScaleBuffers:    tr.NodeCount() + 1,
		StateCount:      4,
		PatternCount:    ps.PatternCount(),
		CategoryCount:   *cats,
	}
	single, err := gobeagle.NewInstance(cfg)
	check(err)
	defer single.Finalize()

	dcfg := cfg
	if *rebalance {
		dcfg.Flags |= gobeagle.FlagRebalance
		dcfg.RebalanceInterval = 4
	}
	if *tracePath != "" {
		dcfg.Flags |= gobeagle.FlagTrace
	}
	var localIDs []int
	if *local {
		localIDs = []int{0}
	}
	dist, err := gobeagle.NewDistributedInstance(dcfg, workers, localIDs, nil)
	check(err)
	defer dist.Finalize()
	fmt.Printf("distributed: %s\n", dist.Implementation())

	ed, err := m.Eigen()
	check(err)
	sched := tr.FullSchedule()
	matrices := make([]int, len(sched.Matrices))
	baseLens := make([]float64, len(sched.Matrices))
	for i, bm := range sched.Matrices {
		matrices[i] = bm.Matrix
		baseLens[i] = bm.Length
	}
	ops := make([]gobeagle.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = gobeagle.Operation{
			Destination: op.Dest, DestScaleWrite: gobeagle.None, DestScaleRead: gobeagle.None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}

	for _, in := range []*gobeagle.Instance{single, dist} {
		check(in.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data))
		check(in.SetCategoryRates(rates.Rates))
		check(in.SetCategoryWeights(rates.Weights))
		check(in.SetStateFrequencies(m.Frequencies))
		check(in.SetPatternWeights(ps.Weights))
		for tip := 0; tip < tr.TipCount; tip++ {
			check(in.SetTipStates(tip, ps.TipStates(tip)))
		}
	}

	lens := make([]float64, len(baseLens))
	start := time.Now()
	for it := 0; it < *iters; it++ {
		// Rescale every branch each iteration, as a sampler perturbing the
		// tree would, so every matrix and partial recomputes.
		scale := 0.5 + 0.05*float64(it%20)
		for j, l := range baseLens {
			lens[j] = l * scale
		}
		for _, in := range []*gobeagle.Instance{single, dist} {
			check(in.UpdateTransitionMatrices(0, matrices, lens))
			check(in.UpdatePartials(ops))
		}
		wantRoot, err := single.CalculateRootLogLikelihoods(sched.Root, gobeagle.None)
		check(err)
		gotRoot, err := dist.CalculateRootLogLikelihoods(sched.Root, gobeagle.None)
		check(err)
		if gotRoot != wantRoot {
			fatal(fmt.Errorf("iteration %d: distributed root lnL %v != single-node %v (must be bit-identical)",
				it, gotRoot, wantRoot))
		}
		wantSite, err := single.SiteLogLikelihoods(sched.Root, gobeagle.None)
		check(err)
		gotSite, err := dist.SiteLogLikelihoods(sched.Root, gobeagle.None)
		check(err)
		for p := range wantSite {
			if gotSite[p] != wantSite[p] {
				fatal(fmt.Errorf("iteration %d: site %d lnL %v != single-node %v (must be bit-identical)",
					it, p, gotSite[p], wantSite[p]))
			}
		}
		if *pause > 0 {
			time.Sleep(*pause)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d iterations verified bit-identical in %s (%.1f ms/iteration)\n",
		*iters, elapsed.Round(time.Millisecond), float64(elapsed.Milliseconds())/float64(*iters))

	failedOver := 0
	for _, ws := range dist.RemoteStats() {
		status := "live"
		if ws.FailedOver {
			status = "FAILED OVER to local fallback"
			failedOver++
		}
		bw := "unmeasured"
		if ws.LinkBandwidth > 0 {
			bw = fmt.Sprintf("%.1f MB/s", ws.LinkBandwidth/1e6)
		}
		fmt.Printf("worker %s: %d RPCs, %d retries, %d redials, %d KiB sent, %d KiB received, link %s, %s\n",
			ws.Addr, ws.RPCs, ws.Retries, ws.Redials,
			ws.BytesSent/1024, ws.BytesReceived/1024, bw, status)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		check(err)
		check(dist.TraceJSON(f))
		check(f.Close())
		fmt.Printf("trace written to %s\n", *tracePath)
	}

	if *expectFail && failedOver == 0 {
		fatal(fmt.Errorf("-expect-failover: no worker failed over (the harness kill did not land mid-run?)"))
	}
}
