// Command beagleml evaluates (and optionally optimizes) the likelihood of a
// phylogenetic tree for a real alignment: FASTA or PHYLIP sequences plus a
// Newick tree, under JC69/K80/HKY85/GTR (+Γ), on any available compute
// resource. It is the kind of thin maximum-likelihood client that programs
// like GARLI or PhyML represent in the paper's domain overview (§III).
//
// Example:
//
//	beagleml -seqs data.fasta -tree tree.nwk -model hky -kappa 2.5 \
//	         -gamma 0.5 -categories 4 -optimize
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gobeagle"
	"gobeagle/internal/mcmc"
	"gobeagle/internal/mle"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "beagleml:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beagleml", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seqsPath  = fs.String("seqs", "", "alignment file (FASTA or PHYLIP; required)")
		treePath  = fs.String("tree", "", "Newick tree file (required)")
		modelName = fs.String("model", "jc", "substitution model: jc, k80, hky, gtr")
		kappa     = fs.Float64("kappa", 2.0, "transition/transversion ratio (k80, hky)")
		gtrRates  = fs.String("gtr-rates", "1,1,1,1,1,1", "GTR exchangeabilities AC,AG,AT,CG,CT,GT")
		gamma     = fs.Float64("gamma", 0, "discrete-gamma shape alpha (0 = no rate variation)")
		cats      = fs.Int("categories", 4, "gamma rate categories")
		empirical = fs.Bool("empirical-freqs", true, "use observed base frequencies (hky, gtr)")
		resource  = fs.String("resource", "CPU (host)", "compute resource name")
		framework = fs.String("framework", "", "restrict resource lookup to CUDA or OpenCL")
		threading = fs.String("threading", "threadpool", "CPU threading: none, futures, threadcreate, threadpool, hybrid")
		optimize  = fs.Bool("optimize", false, "optimize branch lengths by maximum likelihood")
		stats     = fs.Bool("stats", false, "enable telemetry and print per-kernel op counts and timings")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seqsPath == "" || *treePath == "" {
		return errors.New("-seqs and -tree are required")
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
	treeText, err := os.ReadFile(*treePath)
	if err != nil {
		return err
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(treeText)))
	if err != nil {
		return err
	}
	if err := matchTipsToAlignment(tr, align); err != nil {
		return err
	}
	ps := seqgen.CompressPatterns(align)
	fmt.Fprintf(stdout, "alignment: %d taxa, %d sites, %d unique patterns\n",
		len(align.Sequences), align.SiteCount(), ps.PatternCount())

	var gtr []float64
	if *modelName == "gtr" {
		if gtr, err = parseGTRRates(*gtrRates); err != nil {
			return err
		}
	}
	freqs := []float64{0.25, 0.25, 0.25, 0.25}
	if *empirical {
		freqs = align.EmpiricalFrequencies()
	}
	model, err := substmodel.NewNucleotide(*modelName, *kappa, gtr, freqs)
	if err != nil {
		return err
	}
	rates := substmodel.SingleRate()
	if *gamma > 0 {
		if rates, err = substmodel.GammaRates(*gamma, *cats); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "model: %s, %d rate categories\n", model.Name, len(rates.Rates))

	rsc, err := gobeagle.FindResource(*resource, *framework)
	if err != nil {
		return err
	}
	var flags gobeagle.Flags
	switch *threading {
	case "none":
	case "futures":
		flags |= gobeagle.FlagThreadingFutures
	case "threadcreate":
		flags |= gobeagle.FlagThreadingThreadCreate
	case "threadpool":
		flags |= gobeagle.FlagThreadingThreadPool
	case "hybrid", "threadpoolhybrid":
		flags |= gobeagle.FlagThreadingThreadPoolHybrid
	default:
		return fmt.Errorf("unknown threading %q", *threading)
	}
	if *stats {
		flags |= gobeagle.FlagTelemetry
	}
	eng, err := mcmc.NewBeagleEngine(model, rates, ps, tr, rsc.ID, flags)
	if err != nil {
		return err
	}
	defer eng.Close()
	fmt.Fprintf(stdout, "implementation: %s\n", eng.Instance().Implementation())

	lnL, err := eng.LogLikelihood(tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "log likelihood: %.6f\n", lnL)

	if *optimize {
		opt, sweeps, err := mle.OptimizeBranchLengths(tr,
			func(t *tree.Tree) (float64, error) { return eng.LogLikelihood(t) },
			1e-6, 10, 1e-6, 30)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "optimized log likelihood: %.6f (%d sweeps)\n", opt, sweeps)
		fmt.Fprintf(stdout, "optimized tree:\n%s\n", tr.Newick())
	}

	if *stats {
		printStats(stdout, eng.Instance().Stats())
	}
	return nil
}

// printStats renders the telemetry snapshot accumulated across every
// likelihood evaluation of the run.
func printStats(w io.Writer, s gobeagle.Stats) {
	fmt.Fprintf(w, "telemetry: %s (%s), %d batches, %.2f GFLOPS effective\n",
		s.Implementation, s.Strategy, s.Batches, s.EffectiveGFLOPS)
	for _, k := range s.Kernels {
		fmt.Fprintf(w, "  %-12s %8d ops %6d calls  total %v  mean/op %v\n",
			k.Kernel, k.Ops, k.Calls, k.Total.Round(time.Microsecond),
			k.MeanPerOp().Round(time.Nanosecond))
	}
}

// matchTipsToAlignment reorders alignment rows to the tree's tip indices.
// Each row must go to exactly one tip, so a tip name the tree repeats is an
// error.
func matchTipsToAlignment(tr *tree.Tree, a *seqgen.Alignment) error {
	byName := make(map[string]int, len(a.TipNames))
	for i, n := range a.TipNames {
		byName[n] = i
	}
	if len(a.Sequences) != tr.TipCount {
		return fmt.Errorf("alignment has %d sequences but the tree has %d tips", len(a.Sequences), tr.TipCount)
	}
	seqs := make([][]int, tr.TipCount)
	names := make([]string, tr.TipCount)
	used := make([]bool, len(a.Sequences))
	for _, tip := range tr.Tips() {
		row, ok := byName[tip.Name]
		if !ok {
			return fmt.Errorf("tree tip %q not found in the alignment", tip.Name)
		}
		if used[row] {
			return fmt.Errorf("tree tip %q appears more than once", tip.Name)
		}
		used[row] = true
		seqs[tip.Index] = a.Sequences[row]
		names[tip.Index] = tip.Name
	}
	a.Sequences = seqs
	a.TipNames = names
	return nil
}

// parseGTRRates reads the six comma-separated GTR exchangeabilities.
func parseGTRRates(spec string) ([]float64, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 6 {
		return nil, fmt.Errorf("gtr-rates needs 6 comma-separated values")
	}
	rates := make([]float64, 6)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad GTR rate %q: %v", p, err)
		}
		rates[i] = v
	}
	return rates, nil
}
