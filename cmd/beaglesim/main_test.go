package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gobeagle/internal/seqgen"
)

const sixTips = "((a:0.1,b:0.2):0.05,((c:0.15,d:0.1):0.07,(e:0.12,f:0.3):0.04):0.05);"

// writeTree writes the six-tip tree to a file and returns its path.
func writeTree(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t6.nwk")
	if err := os.WriteFile(path, []byte(sixTips), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// simulate runs the command on the six-tip tree and returns its stdout.
func simulate(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-tree", writeTree(t), "-sites", "300", "-model", "hky"}, args...), &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, stderr.String())
	}
	if want := "beaglesim: 6 taxa x 300 sites under HKY85"; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr %q, want it to start %q", stderr.String(), want)
	}
	return stdout.Bytes()
}

func TestOutputReadsBack(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a6.fasta")
	if stdout := simulate(t, "-out", out); len(stdout) != 0 {
		t.Fatalf("-out still wrote %d bytes to stdout", len(stdout))
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fasta, err := seqgen.ReadFASTA(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	phylip, err := seqgen.ReadPHYLIP(bytes.NewReader(simulate(t, "-phylip")), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*seqgen.Alignment{fasta, phylip} {
		if strings.Join(a.TipNames, ",") != "a,b,c,d,e,f" || a.SiteCount() != 300 {
			t.Fatalf("read back %v x %d sites", a.TipNames, a.SiteCount())
		}
	}
	for i := range fasta.Sequences {
		if !slices.Equal(fasta.Sequences[i], phylip.Sequences[i]) {
			t.Fatalf("row %s differs between FASTA and PHYLIP output of one seed", fasta.TipNames[i])
		}
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := simulate(t, "-seed", "7", "-gamma", "0.5"), simulate(t, "-seed", "7", "-gamma", "0.5")
	if !bytes.Equal(a, b) {
		t.Fatal("one seed gave two alignments")
	}
	if bytes.Equal(a, simulate(t, "-seed", "8", "-gamma", "0.5")) {
		t.Fatal("two seeds gave one alignment")
	}
}

func TestRunErrors(t *testing.T) {
	treePath := writeTree(t)
	for _, args := range [][]string{
		{},
		{"-tree", treePath + ".missing"},
		{"-tree", treePath, "-model", "gy94"},
		{"-tree", treePath, "-model", "hky", "-freqs", "0.5,x,0.25,0.25"},
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run %v succeeded", args)
		}
	}
}
