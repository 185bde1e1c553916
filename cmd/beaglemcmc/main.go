// Command beaglemcmc runs a Bayesian phylogenetic analysis in the style of
// MrBayes (§VIII-C): Metropolis-coupled MCMC with four incrementally heated
// chains over a FASTA or PHYLIP alignment, likelihoods evaluated through the
// library on any available compute resource, reporting the posterior
// log-likelihood trace summary, clade supports and the majority-rule
// consensus tree.
//
// Example:
//
//	beaglemcmc -seqs data.fasta -generations 5000 -model hky -gamma 0.5
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"gobeagle"
	"gobeagle/internal/mcmc"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "beaglemcmc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beaglemcmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seqsPath  = fs.String("seqs", "", "alignment file (FASTA or PHYLIP; required)")
		modelName = fs.String("model", "jc", "substitution model: jc, k80, hky")
		kappa     = fs.Float64("kappa", 2.0, "transition/transversion ratio (k80, hky)")
		gamma     = fs.Float64("gamma", 0, "discrete-gamma shape alpha (0 = no rate variation)")
		cats      = fs.Int("categories", 4, "gamma rate categories")
		gens      = fs.Int("generations", 2000, "MCMC generations")
		chains    = fs.Int("chains", 4, "Metropolis-coupled chains")
		sample    = fs.Int("sample", 10, "sample interval (generations)")
		seed      = fs.Int64("seed", 1, "random seed")
		resource  = fs.String("resource", "CPU (host)", "compute resource name")
		framework = fs.String("framework", "", "restrict resource lookup to CUDA or OpenCL")
		stats     = fs.Bool("stats", false, "enable telemetry and print per-chain kernel op counts and timings")
		reuse     = fs.Bool("reuse", false, "enable incremental re-evaluation: skip partials and matrix updates whose inputs are unchanged since the previous proposal")
		tracePath = fs.String("trace", "", "enable span tracing on the cold chain and write its Chrome trace-event JSON timeline to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seqsPath == "" {
		return errors.New("-seqs is required")
	}

	f, err := os.Open(*seqsPath)
	if err != nil {
		return err
	}
	align, err := seqgen.ReadAlignment(f, 4)
	f.Close()
	if err != nil {
		return err
	}
	ps := seqgen.CompressPatterns(align)
	fmt.Fprintf(stdout, "alignment: %d taxa, %d sites, %d unique patterns\n",
		len(align.Sequences), align.SiteCount(), ps.PatternCount())

	model, err := substmodel.NewNucleotide(*modelName, *kappa, nil, align.EmpiricalFrequencies())
	if err != nil {
		return err
	}
	rates := substmodel.SingleRate()
	if *gamma > 0 {
		if rates, err = substmodel.GammaRates(*gamma, *cats); err != nil {
			return err
		}
	}

	// Random starting tree whose tip names match the alignment rows by
	// index (the library's buffers are keyed by tip index).
	rng := rand.New(rand.NewSource(*seed))
	start, err := tree.Random(rng, len(align.Sequences), 0.1)
	if err != nil {
		return err
	}
	for i, tip := range start.Tips() {
		tip.Name = align.TipNames[i]
	}

	rsc, err := gobeagle.FindResource(*resource, *framework)
	if err != nil {
		return err
	}
	flags := gobeagle.FlagThreadingThreadPool
	if *stats {
		flags |= gobeagle.FlagTelemetry
	}
	if *reuse {
		flags |= gobeagle.FlagReuse
	}
	engines := make([]mcmc.LikelihoodEngine, *chains)
	beagles := make([]*mcmc.BeagleEngine, *chains)
	for i := range engines {
		// Only chain 0 (the cold chain) is traced: one timeline is enough to
		// see the evaluation structure, and tracing every heated chain would
		// multiply the span volume without adding information.
		cf := flags
		if *tracePath != "" && i == 0 {
			cf |= gobeagle.FlagTrace
		}
		eng, err := mcmc.NewBeagleEngine(model, rates, ps, start, rsc.ID, cf)
		if err != nil {
			return err
		}
		defer eng.Close()
		engines[i] = eng
		beagles[i] = eng
	}
	fmt.Fprintf(stdout, "model: %s, %d rate categories; %d chains on %s\n",
		model.Name, len(rates.Rates), *chains, *resource)

	res, err := mcmc.Run(mcmc.Config{
		Tree:           start,
		Engines:        engines,
		Generations:    *gens,
		HeatLambda:     0.1,
		NNIProbability: 0.3,
		SampleInterval: *sample,
		SampleSplits:   true,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "moves accepted: %.1f%%; swaps accepted: %.1f%%\n",
		100*float64(res.AcceptedMoves)/float64(res.ProposedMoves),
		100*float64(res.AcceptedSwaps)/float64(max(1, res.ProposedSwaps)))
	if sum, err := mcmc.Summarize(res.Trace, len(res.Trace)/4); err == nil {
		fmt.Fprintf(stdout, "post-burn-in lnL: mean %.3f ± %.3f (ESS %.0f of %d)\n",
			sum.Mean, sum.StdDev, sum.ESS, sum.N)
	}

	fmt.Fprintf(stdout, "majority clades (%d topology samples):\n", res.SplitSampleCount)
	for _, c := range majorityClades(res.SplitSupport) {
		fmt.Fprintf(stdout, "  %5.1f%%  {%s}\n", 100*c.freq, c.split)
	}

	consensus, err := tree.MajorityRuleConsensus(align.TipNames, res.SplitSupport, 0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "majority-rule consensus tree:\n%s\n", consensus)

	if *stats {
		printStats(stdout, beagles)
	}
	if *tracePath != "" {
		return writeTrace(stdout, beagles[0].Instance(), *tracePath)
	}
	return nil
}

// clade is one split of the sampled trees and the share of samples that
// carry it.
type clade struct {
	split string
	freq  float64
}

// majorityClades lists the splits carried by at least half the samples,
// strongest first.
func majorityClades(support map[string]float64) []clade {
	var cs []clade
	for s, f := range support {
		if f >= 0.5 {
			cs = append(cs, clade{s, f})
		}
	}
	slices.SortFunc(cs, compareClades)
	return cs
}

// compareClades orders clades by falling support, and tied clades by split,
// so that the report is the same on every run.
func compareClades(a, b clade) int {
	if c := cmp.Compare(b.freq, a.freq); c != 0 {
		return c
	}
	return strings.Compare(a.split, b.split)
}

// writeTrace exports the cold chain's span timeline as Chrome trace-event
// JSON.
func writeTrace(w io.Writer, inst *gobeagle.Instance, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = inst.TraceJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d spans to %s — load in ui.perfetto.dev\n", inst.TraceSpanCount(), path)
	return nil
}

// printStats summarizes the telemetry of every chain's instance: per-chain
// batch counts and effective GFLOPS, and the partials kernel totals summed
// across chains (the MCMC run's dominant cost).
func printStats(w io.Writer, beagles []*mcmc.BeagleEngine) {
	var totalOps, totalCalls uint64
	var totalTime time.Duration
	for i, b := range beagles {
		s := b.Instance().Stats()
		fmt.Fprintf(w, "telemetry chain %d: %s (%s), %d batches, %.2f GFLOPS effective\n",
			i, s.Implementation, s.Strategy, s.Batches, s.EffectiveGFLOPS)
		for _, k := range s.Kernels {
			fmt.Fprintf(w, "  %-12s %8d ops %6d calls  total %v  mean/op %v\n",
				k.Kernel, k.Ops, k.Calls, k.Total.Round(time.Microsecond),
				k.MeanPerOp().Round(time.Nanosecond))
		}
		if r := b.Instance().ReuseStats(); r.Enabled {
			fmt.Fprintf(w, "  reuse: partials %d/%d skipped (%.1f%%), matrices %d/%d skipped (%.1f%%), %d invalidations\n",
				r.OpHits, r.OpHits+r.OpMisses, 100*r.OpHitRate(),
				r.MatrixHits, r.MatrixHits+r.MatrixMisses, 100*r.MatrixHitRate(),
				r.Invalidations)
		}
		p := s.Kernel("partials")
		totalOps += p.Ops
		totalCalls += p.Calls
		totalTime += p.Total
	}
	fmt.Fprintf(w, "telemetry all chains: partials %d ops in %d calls, %v total\n",
		totalOps, totalCalls, totalTime.Round(time.Microsecond))
}
