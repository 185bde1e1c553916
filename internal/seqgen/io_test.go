package seqgen

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadFASTAKnown(t *testing.T) {
	in := `>human some description
ACGT-N
ACGT
>chimp
acgtua
cgtt
`
	a, err := ReadFASTA(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sequences) != 2 || a.SiteCount() != 10 {
		t.Fatalf("shape %dx%d", len(a.Sequences), a.SiteCount())
	}
	if a.TipNames[0] != "human" || a.TipNames[1] != "chimp" {
		t.Fatalf("names %v", a.TipNames)
	}
	want := []int{0, 1, 2, 3, 4, 4, 0, 1, 2, 3}
	for i, s := range a.Sequences[0] {
		if s != want[i] {
			t.Fatalf("human states %v want %v", a.Sequences[0], want)
		}
	}
	// U maps to T; lowercase accepted.
	if a.Sequences[1][4] != 3 {
		t.Fatalf("U must decode to T state, got %d", a.Sequences[1][4])
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",              // data before header
		">only\nACGT\n",       // single sequence
		">a\nACGT\n>b\nACG\n", // ragged
		">a\n\n>b\n",          // empty alignment
	}
	for _, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in), 4); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
	if _, err := ReadFASTA(strings.NewReader(">a\nAA\n>b\nAA\n"), 61); err == nil {
		t.Error("codon alignments have no character encoding")
	}
}

func TestFASTARoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tips := 2 + rng.Intn(6)
		sites := 1 + rng.Intn(200)
		a, err := RandomAlignment(rng, tips, 4, sites)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, a); err != nil {
			return false
		}
		back, err := ReadFASTA(&buf, 4)
		if err != nil {
			return false
		}
		if len(back.Sequences) != tips || back.SiteCount() != sites {
			return false
		}
		for i := range a.Sequences {
			if back.TipNames[i] != a.TipNames[i] {
				return false
			}
			for j := range a.Sequences[i] {
				if back.Sequences[i][j] != a.Sequences[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAminoAcidFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, err := RandomAlignment(rng, 3, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sequences {
		for j := range a.Sequences[i] {
			if back.Sequences[i][j] != a.Sequences[i][j] {
				t.Fatalf("mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestPHYLIPRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, err := RandomAlignment(rng, 5, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePHYLIP(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPHYLIP(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sequences) != 5 || back.SiteCount() != 80 {
		t.Fatalf("shape %dx%d", len(back.Sequences), back.SiteCount())
	}
	for i := range a.Sequences {
		if back.TipNames[i] != a.TipNames[i] {
			t.Fatalf("name %q want %q", back.TipNames[i], a.TipNames[i])
		}
		for j := range a.Sequences[i] {
			if back.Sequences[i][j] != a.Sequences[i][j] {
				t.Fatalf("mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestReadPHYLIPErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"junk\n",               // bad header
		"1 4\na ACGT\n",        // too few taxa
		"2 4\na ACGT\n",        // missing record
		"2 4\na ACGT\nb ACG\n", // short sequence
		"2 4\na\nb ACGT\n",     // record without sequence
	}
	for _, in := range cases {
		if _, err := ReadPHYLIP(strings.NewReader(in), 4); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestIOGapHandlingFeedsAmbiguity(t *testing.T) {
	// Gap characters decode to the gap state, which TipPartials expands to
	// all ones — the fully ambiguous observation.
	a, err := ReadFASTA(strings.NewReader(">a\nA-\n>b\nAC\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := CompressPatterns(a)
	for i, pat := range ps.Patterns {
		if pat[0] == 4 { // the gap column
			p := ps.TipPartials(0)
			for k := 0; k < 4; k++ {
				if p[i*4+k] != 1 {
					t.Fatalf("gap column partials %v", p[i*4:i*4+4])
				}
			}
			return
		}
	}
	t.Fatal("gap column missing after compression")
}

func TestIUPACPartials(t *testing.T) {
	cases := map[byte][4]float64{
		'A': {1, 0, 0, 0},
		'c': {0, 1, 0, 0},
		'G': {0, 0, 1, 0},
		'u': {0, 0, 0, 1},
		'R': {1, 0, 1, 0},
		'y': {0, 1, 0, 1},
		'S': {0, 1, 1, 0},
		'W': {1, 0, 0, 1},
		'K': {0, 0, 1, 1},
		'M': {1, 1, 0, 0},
		'B': {0, 1, 1, 1},
		'D': {1, 0, 1, 1},
		'H': {1, 1, 0, 1},
		'V': {1, 1, 1, 0},
		'N': {1, 1, 1, 1},
		'-': {1, 1, 1, 1},
		'?': {1, 1, 1, 1},
	}
	for c, want := range cases {
		if got := IUPACPartials(c); got != want {
			t.Errorf("IUPACPartials(%c) = %v want %v", c, got, want)
		}
	}
}

func TestTipPartialsFromIUPAC(t *testing.T) {
	p := TipPartialsFromIUPAC("AR-")
	want := []float64{
		1, 0, 0, 0, // A
		1, 0, 1, 0, // R
		1, 1, 1, 1, // gap
	}
	if len(p) != len(want) {
		t.Fatalf("length %d", len(p))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("partials %v want %v", p, want)
		}
	}
}

func TestIUPACConsistentWithUnambiguousStates(t *testing.T) {
	// For unambiguous characters the IUPAC partials equal the indicator
	// vector of the compact state.
	for _, c := range []byte{'A', 'C', 'G', 'T'} {
		st := nucleotideIndex(c)
		p := IUPACPartials(c)
		for k := 0; k < 4; k++ {
			want := 0.0
			if k == st {
				want = 1
			}
			if p[k] != want {
				t.Fatalf("IUPAC/%c inconsistent with compact state %d", c, st)
			}
		}
	}
}

func TestReadAlignmentSniffsFormat(t *testing.T) {
	fasta := "\n  >a\nACGT\n>b\nAC-T\n"
	phylip := "2 4\na ACGT\nb AC-T\n"
	for _, in := range []string{fasta, phylip} {
		a, err := ReadAlignment(strings.NewReader(in), 4)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if strings.Join(a.TipNames, ",") != "a,b" || a.SiteCount() != 4 || a.Sequences[1][2] != 4 {
			t.Fatalf("%q read as %v %v", in, a.TipNames, a.Sequences)
		}
	}
	if _, err := ReadAlignment(strings.NewReader(">a\nAC\n"), 4); err == nil {
		t.Error("a one-sequence FASTA must fail as FASTA")
	}
}
