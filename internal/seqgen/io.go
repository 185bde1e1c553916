package seqgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Character-to-state encodings. Unrecognized or ambiguity characters map to
// the gap state (StateCount), which the library treats as fully ambiguous.

// nucleotideIndex maps a nucleotide character to its state (A C G T order),
// returning 4 for gaps and ambiguity codes.
func nucleotideIndex(c byte) int {
	switch c {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't', 'U', 'u':
		return 3
	default:
		return 4
	}
}

// aminoAcidIndex maps a one-letter amino-acid code to its state
// (alphabetical order, as in substmodel.AminoAcidAlphabet), returning 20 for
// gaps and unknowns.
func aminoAcidIndex(c byte) int {
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	if c >= 'a' && c <= 'z' {
		c -= 'a' - 'A'
	}
	if i := strings.IndexByte(alpha, c); i >= 0 {
		return i
	}
	return 20
}

// IUPACPartials returns the 4-state observation vector (A, C, G, T order)
// for an IUPAC nucleotide code: 1.0 for every base the code is compatible
// with. This is the partially ambiguous representation that the library's
// SetTipPartials exists for; compact states can only express "known" or
// "fully unknown". Unrecognized characters decode as fully ambiguous.
func IUPACPartials(c byte) [4]float64 {
	if c >= 'a' && c <= 'z' {
		c -= 'a' - 'A'
	}
	switch c {
	case 'A':
		return [4]float64{1, 0, 0, 0}
	case 'C':
		return [4]float64{0, 1, 0, 0}
	case 'G':
		return [4]float64{0, 0, 1, 0}
	case 'T', 'U':
		return [4]float64{0, 0, 0, 1}
	case 'R': // purine
		return [4]float64{1, 0, 1, 0}
	case 'Y': // pyrimidine
		return [4]float64{0, 1, 0, 1}
	case 'S':
		return [4]float64{0, 1, 1, 0}
	case 'W':
		return [4]float64{1, 0, 0, 1}
	case 'K':
		return [4]float64{0, 0, 1, 1}
	case 'M':
		return [4]float64{1, 1, 0, 0}
	case 'B': // not A
		return [4]float64{0, 1, 1, 1}
	case 'D': // not C
		return [4]float64{1, 0, 1, 1}
	case 'H': // not G
		return [4]float64{1, 1, 0, 1}
	case 'V': // not T
		return [4]float64{1, 1, 1, 0}
	default: // N, gaps, unknowns
		return [4]float64{1, 1, 1, 1}
	}
}

// TipPartialsFromIUPAC converts a nucleotide character sequence (one
// character per pattern) into the per-pattern tip-partials layout consumed
// by SetTipPartials, preserving IUPAC partial-ambiguity codes.
func TipPartialsFromIUPAC(seq string) []float64 {
	out := make([]float64, len(seq)*4)
	for i := 0; i < len(seq); i++ {
		p := IUPACPartials(seq[i])
		copy(out[i*4:], p[:])
	}
	return out
}

// charIndexFor returns the character decoder for a state count (4 or 20).
func charIndexFor(stateCount int) (func(byte) int, error) {
	switch stateCount {
	case 4:
		return nucleotideIndex, nil
	case 20:
		return aminoAcidIndex, nil
	default:
		return nil, fmt.Errorf("seqgen: no character encoding for %d states (use 4 or 20)", stateCount)
	}
}

// DecodeSequence maps one aligned character string to state indices under
// the given state count (4 = IUPAC nucleotide, 20 = amino acid). Gaps,
// ambiguity codes and unrecognized characters become the fully ambiguous
// state (stateCount), matching ReadFASTA's encoding.
func DecodeSequence(chars string, stateCount int) ([]int, error) {
	decode, err := charIndexFor(stateCount)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(chars))
	for i := 0; i < len(chars); i++ {
		out[i] = decode(chars[i])
	}
	return out, nil
}

// stateChar renders a state back to its character.
func stateChar(stateCount, s int) byte {
	if stateCount == 4 {
		if s >= 0 && s < 4 {
			return "ACGT"[s]
		}
		return '-'
	}
	if s >= 0 && s < 20 {
		return "ACDEFGHIKLMNPQRSTVWY"[s]
	}
	return '-'
}

// ReadFASTA parses a FASTA alignment into state indices under the given
// state count (4 = nucleotide, 20 = amino acid). All sequences must have
// equal length; gaps and ambiguity codes become the fully ambiguous state.
func ReadFASTA(r io.Reader, stateCount int) (*Alignment, error) {
	decode, err := charIndexFor(stateCount)
	if err != nil {
		return nil, err
	}
	a := &Alignment{StateCount: stateCount}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var current []int
	flush := func() {
		if current != nil {
			a.Sequences = append(a.Sequences, current)
			current = nil
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			flush()
			a.TipNames = append(a.TipNames, strings.Fields(line[1:])[0])
			current = []int{}
			continue
		}
		if current == nil {
			return nil, fmt.Errorf("seqgen: FASTA sequence data before any header")
		}
		for i := 0; i < len(line); i++ {
			current = append(current, decode(line[i]))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(a.Sequences) < 2 {
		return nil, fmt.Errorf("seqgen: FASTA alignment needs at least 2 sequences, got %d", len(a.Sequences))
	}
	n := len(a.Sequences[0])
	for i, s := range a.Sequences {
		if len(s) != n {
			return nil, fmt.Errorf("seqgen: sequence %q has length %d, want %d", a.TipNames[i], len(s), n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("seqgen: empty alignment")
	}
	return a, nil
}

// ReadAlignment reads a FASTA or a PHYLIP alignment, telling them apart by
// the first non-blank byte: '>' starts FASTA, anything else is PHYLIP.
func ReadAlignment(r io.Reader, stateCount int) (*Alignment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte(">")) {
		return ReadFASTA(bytes.NewReader(data), stateCount)
	}
	return ReadPHYLIP(bytes.NewReader(data), stateCount)
}

// WriteFASTA renders the alignment in FASTA format, 70 characters per line.
func WriteFASTA(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	for i, name := range a.TipNames {
		if _, err := fmt.Fprintf(bw, ">%s\n", name); err != nil {
			return err
		}
		seq := a.Sequences[i]
		for off := 0; off < len(seq); off += 70 {
			end := off + 70
			if end > len(seq) {
				end = len(seq)
			}
			for _, s := range seq[off:end] {
				if err := bw.WriteByte(stateChar(a.StateCount, s)); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadPHYLIP parses a relaxed sequential PHYLIP alignment: a header line
// with the sequence and site counts, then one "name sequence" record per
// taxon (whitespace-separated, sequence possibly wrapped is NOT supported —
// sequential relaxed format only).
func ReadPHYLIP(r io.Reader, stateCount int) (*Alignment, error) {
	decode, err := charIndexFor(stateCount)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("seqgen: empty PHYLIP input")
	}
	var nTaxa, nSites int
	if _, err := fmt.Sscan(sc.Text(), &nTaxa, &nSites); err != nil {
		return nil, fmt.Errorf("seqgen: bad PHYLIP header %q: %v", sc.Text(), err)
	}
	if nTaxa < 2 || nSites < 1 {
		return nil, fmt.Errorf("seqgen: bad PHYLIP dimensions %d x %d", nTaxa, nSites)
	}
	a := &Alignment{StateCount: stateCount}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("seqgen: bad PHYLIP record %q", line)
		}
		name := fields[0]
		joined := strings.Join(fields[1:], "")
		if len(joined) != nSites {
			return nil, fmt.Errorf("seqgen: sequence %q has %d sites, header says %d", name, len(joined), nSites)
		}
		seq := make([]int, nSites)
		for i := 0; i < nSites; i++ {
			seq[i] = decode(joined[i])
		}
		a.TipNames = append(a.TipNames, name)
		a.Sequences = append(a.Sequences, seq)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(a.Sequences) != nTaxa {
		return nil, fmt.Errorf("seqgen: PHYLIP header promises %d taxa, found %d", nTaxa, len(a.Sequences))
	}
	return a, nil
}

// WritePHYLIP renders the alignment in relaxed sequential PHYLIP format.
func WritePHYLIP(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", len(a.Sequences), a.SiteCount()); err != nil {
		return err
	}
	for i, name := range a.TipNames {
		if _, err := fmt.Fprintf(bw, "%-12s ", name); err != nil {
			return err
		}
		for _, s := range a.Sequences[i] {
			if err := bw.WriteByte(stateChar(a.StateCount, s)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
