package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gobeagle/internal/mcmc"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

const sixTips = "((a:0.1,b:0.2):0.05,((c:0.15,d:0.1):0.07,(e:0.12,f:0.3):0.04):0.05);"

// problem writes the six-tip tree and an alignment simulated down it, rows
// in reverse tip order so the command has to match rows to tips by name,
// and returns the two paths and the alignment in tip order.
func problem(t *testing.T) (treePath, seqsPath string, align *seqgen.Alignment) {
	t.Helper()
	tr, err := tree.ParseNewick(sixTips)
	if err != nil {
		t.Fatal(err)
	}
	model, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	align, err = seqgen.Simulate(rand.New(rand.NewSource(1)), tr, model, substmodel.SingleRate(), 300)
	if err != nil {
		t.Fatal(err)
	}
	reversed := &seqgen.Alignment{StateCount: 4}
	for i := len(align.TipNames) - 1; i >= 0; i-- {
		reversed.TipNames = append(reversed.TipNames, align.TipNames[i])
		reversed.Sequences = append(reversed.Sequences, align.Sequences[i])
	}
	var fasta bytes.Buffer
	if err := seqgen.WriteFASTA(&fasta, reversed); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	treePath, seqsPath = filepath.Join(dir, "t6.nwk"), filepath.Join(dir, "a6.fasta")
	for path, data := range map[string][]byte{treePath: []byte(sixTips), seqsPath: fasta.Bytes()} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return treePath, seqsPath, align
}

// lnL returns the number printed after prefix on a line of out.
func lnL(t *testing.T, out, prefix string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(prefix) + ` (-?[0-9.]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %q line in\n%s", prefix, out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLogLikelihoodMatchesEngine(t *testing.T) {
	treePath, seqsPath, align := problem(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-seqs", seqsPath, "-tree", treePath, "-model", "hky", "-gamma", "0.5", "-optimize"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	out := stdout.String()

	// The same evaluation made directly: HKY85 with add-one empirical
	// frequencies, four gamma categories, on the reference CPU engine.
	tr, _ := tree.ParseNewick(sixTips)
	model, err := substmodel.NewHKY85(2, align.EmpiricalFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mcmc.NewBeagleEngine(model, rates, seqgen.CompressPatterns(align), tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := eng.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	printed := lnL(t, out, "log likelihood:")
	if got, want := fmt.Sprintf("%.6f", printed), fmt.Sprintf("%.6f", want); got != want {
		t.Errorf("printed log likelihood %s, engine gives %s", got, want)
	}
	if opt := lnL(t, out, "optimized log likelihood:"); opt < printed {
		t.Errorf("-optimize lowered the log likelihood from %f to %f", printed, opt)
	}
}

func TestRunErrors(t *testing.T) {
	treePath, seqsPath, _ := problem(t)
	repeated := filepath.Join(t.TempDir(), "repeated.nwk")
	if err := os.WriteFile(repeated, []byte(strings.Replace(sixTips, "b:", "a:", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-seqs", seqsPath}, "required"},
		// The tree names a twice and b never: row a must not be read twice.
		{[]string{"-seqs", seqsPath, "-tree", repeated}, `tree tip "a" appears more than once`},
		{[]string{"-seqs", seqsPath, "-tree", treePath, "-model", "gy94"}, "unknown nucleotide model"},
		{[]string{"-seqs", seqsPath, "-tree", treePath, "-model", "gtr", "-gtr-rates", "1,2,3"}, "6 comma-separated"},
		{[]string{"-seqs", seqsPath, "-tree", treePath, "-threading", "gpu"}, "unknown threading"},
	} {
		err := run(c.args, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}
