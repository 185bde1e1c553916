// Command beaglesim simulates molecular sequence alignments down a
// phylogenetic tree (a seq-gen-style tool): Newick tree + substitution model
// → FASTA or PHYLIP alignment. Together with beagleml and beaglemcmc it
// completes the simulate → infer toolchain, and is how the repository's own
// test datasets are produced.
//
// Example:
//
//	beaglesim -tree tree.nwk -sites 1000 -model hky -kappa 2.5 \
//	          -gamma 0.5 -out data.fasta
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "beaglesim:", err)
		os.Exit(1)
	}
}

// run writes the simulated alignment to stdout (or -out) and its summary
// line to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beaglesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		treePath  = fs.String("tree", "", "Newick tree file (required)")
		sites     = fs.Int("sites", 1000, "alignment length in sites")
		modelName = fs.String("model", "jc", "substitution model: jc, k80, hky")
		kappa     = fs.Float64("kappa", 2.0, "transition/transversion ratio (k80, hky)")
		freqsSpec = fs.String("freqs", "0.25,0.25,0.25,0.25", "base frequencies A,C,G,T (hky)")
		gamma     = fs.Float64("gamma", 0, "discrete-gamma shape alpha (0 = no rate variation)")
		cats      = fs.Int("categories", 4, "gamma rate categories")
		seed      = fs.Int64("seed", 1, "random seed")
		outPath   = fs.String("out", "", "output file (default stdout)")
		phylip    = fs.Bool("phylip", false, "write PHYLIP instead of FASTA")
		stats     = fs.Bool("stats", false, "print simulation timing and throughput")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *treePath == "" {
		return errors.New("-tree is required")
	}
	text, err := os.ReadFile(*treePath)
	if err != nil {
		return err
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(text)))
	if err != nil {
		return err
	}

	var freqs []float64
	for _, p := range strings.Split(*freqsSpec, ",") {
		var v float64
		if _, err := fmt.Sscan(strings.TrimSpace(p), &v); err != nil {
			return fmt.Errorf("bad frequency %q: %v", p, err)
		}
		freqs = append(freqs, v)
	}
	model, err := substmodel.NewNucleotide(*modelName, *kappa, nil, freqs)
	if err != nil {
		return err
	}
	rates := substmodel.SingleRate()
	if *gamma > 0 {
		if rates, err = substmodel.GammaRates(*gamma, *cats); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	simStart := time.Now()
	align, err := seqgen.Simulate(rng, tr, model, rates, *sites)
	simElapsed := time.Since(simStart)
	if err != nil {
		return err
	}

	out := stdout
	var file *os.File
	if *outPath != "" {
		if file, err = os.Create(*outPath); err != nil {
			return err
		}
		defer file.Close()
		out = file
	}
	if *phylip {
		err = seqgen.WritePHYLIP(out, align)
	} else {
		err = seqgen.WriteFASTA(out, align)
	}
	if err != nil {
		return err
	}
	if file != nil {
		if err := file.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "beaglesim: %d taxa x %d sites under %s (%d rate categories)\n",
		tr.TipCount, *sites, model.Name, len(rates.Rates))
	if *stats {
		cells := float64(tr.TipCount) * float64(*sites)
		fmt.Fprintf(stderr, "beaglesim: simulated in %v (%.0f sites/s, %.0f tip-sites/s)\n",
			simElapsed.Round(time.Microsecond),
			float64(*sites)/simElapsed.Seconds(), cells/simElapsed.Seconds())
	}
	return nil
}
