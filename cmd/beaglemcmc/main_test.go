package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// writeAlignment simulates 300 sites down a six-tip tree and writes them as
// FASTA, returning the path.
func writeAlignment(t *testing.T) string {
	t.Helper()
	tr, err := tree.ParseNewick("((a:0.1,b:0.2):0.05,((c:0.15,d:0.1):0.07,(e:0.12,f:0.3):0.04):0.05);")
	if err != nil {
		t.Fatal(err)
	}
	model, err := substmodel.NewHKY85(2, []float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	align, err := seqgen.Simulate(rand.New(rand.NewSource(1)), tr, model, substmodel.SingleRate(), 300)
	if err != nil {
		t.Fatal(err)
	}
	var fasta bytes.Buffer
	if err := seqgen.WriteFASTA(&fasta, align); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a6.fasta")
	if err := os.WriteFile(path, fasta.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sample(t *testing.T, seqsPath string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-seqs", seqsPath, "-generations", "400", "-model", "hky"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	return stdout.String()
}

func TestConsensusNamesEveryTipOnce(t *testing.T) {
	out := sample(t, writeAlignment(t))
	_, consensus, ok := strings.Cut(out, "majority-rule consensus tree:\n")
	if !ok {
		t.Fatalf("no consensus tree in\n%s", out)
	}
	names := regexp.MustCompile(`[A-Za-z]\w*`).FindAllString(consensus, -1)
	slices.Sort(names)
	if strings.Join(names, ",") != "a,b,c,d,e,f" {
		t.Fatalf("consensus %q names %v, want each of a–f once", consensus, names)
	}
}

// TestSameSeedSameStdout holds the whole report, clade order included, to
// one output per seed; run it with -count=20.
func TestSameSeedSameStdout(t *testing.T) {
	seqs := writeAlignment(t)
	if a, b := sample(t, seqs), sample(t, seqs); a != b {
		t.Fatalf("one seed, two reports:\n%s\n%s", a, b)
	}
}

func TestCompareCladesBreaksTiesBySplit(t *testing.T) {
	want := []clade{{"a,b", 1}, {"c,d", 1}, {"e,f", 1}, {"a,b,c,d", 0.75}, {"c,d,e,f", 0.75}, {"a,c", 0.5}}
	for _, perm := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 0, 1, 4, 3, 5}, {1, 2, 0, 5, 4, 3}} {
		cs := make([]clade, len(perm))
		for i, p := range perm {
			cs[i] = want[p]
		}
		slices.SortFunc(cs, compareClades)
		if !slices.Equal(cs, want) {
			t.Errorf("input order %v sorted to %v", perm, cs)
		}
	}
}

func TestRunErrors(t *testing.T) {
	seqs := writeAlignment(t)
	for _, args := range [][]string{
		{},
		{"-seqs", seqs + ".missing"},
		{"-seqs", seqs, "-model", "gy94"},
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run %v succeeded", args)
		}
	}
}
