package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"gobeagle/internal/linalg"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// ModelSpec selects a substitution model on the wire. Type is one of JC69,
// K80, HKY85, GTR, GY94, PoissonAA, GTRAA or general; parameters that do not
// apply to a type are ignored.
type ModelSpec struct {
	Type        string    `json:"type"`
	Kappa       float64   `json:"kappa,omitempty"`
	Omega       float64   `json:"omega,omitempty"`
	Rates       []float64 `json:"rates,omitempty"`
	Frequencies []float64 `json:"frequencies,omitempty"`
}

// GammaSpec selects discrete-gamma among-site rate variation.
type GammaSpec struct {
	Alpha      float64 `json:"alpha"`
	Categories int     `json:"categories"`
}

// EvaluateRequest is the POST /v1/evaluate body: one tree, one model, one
// alignment, evaluated to the root log likelihood (optionally per-site log
// likelihoods and the root-branch derivatives).
type EvaluateRequest struct {
	// RequestID names the request for tracing and log correlation; the
	// X-Beagle-Request-Id header takes precedence, and the server generates
	// an id when both are empty. The effective id is echoed in the
	// response header and body.
	RequestID string `json:"request_id,omitempty"`
	// Tenant attributes the request to a quota bucket; the X-Beagle-Tenant
	// header takes precedence. Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Newick is the rooted binary tree with branch lengths; tip names must
	// match the sequence keys.
	Newick string    `json:"newick"`
	Model  ModelSpec `json:"model"`
	// Gamma adds discrete-gamma rate categories; nil evaluates a single rate.
	Gamma *GammaSpec `json:"gamma,omitempty"`
	// Sequences maps tip name to an aligned character sequence (IUPAC
	// nucleotide for 4-state models, one-letter amino acid for 20-state).
	Sequences map[string]string `json:"sequences,omitempty"`
	// States maps tip name to raw per-site state indices, for alphabets
	// without a character encoding (codon models). Values ≥ the model's
	// state count denote full ambiguity.
	States map[string][]int `json:"states,omitempty"`
	// Precision is "double" (default) or "single".
	Precision string `json:"precision,omitempty"`
	// SiteLogLikelihoods returns per-site (not per-pattern) root log
	// likelihoods alongside the total.
	SiteLogLikelihoods bool `json:"site_log_likelihoods,omitempty"`
	// EdgeDerivatives also returns d lnL/dt and d² lnL/dt² with respect to
	// the root branch (the summed branch between the root's two children).
	EdgeDerivatives bool `json:"edge_derivatives,omitempty"`
}

// PoolInfo reports how the serving layer executed a request.
type PoolInfo struct {
	// Key is the warm-instance pool key the request mapped to.
	Key string `json:"key"`
	// Hit is true when a warm calculator existed for the key.
	Hit bool `json:"hit"`
	// Batched is the number of requests coalesced into the same scheduler
	// submission (1 = the request ran alone).
	Batched int `json:"batched"`
	// Slot is the calculator slot id the request evaluated in.
	Slot int `json:"slot"`
	// WaitMicros is the queueing delay from admission to batch start.
	WaitMicros int64 `json:"wait_us"`
}

// EvaluateResponse is the POST /v1/evaluate reply.
type EvaluateResponse struct {
	// RequestID is the effective request id (client-supplied or generated),
	// matching the X-Beagle-Request-Id response header.
	RequestID          string    `json:"request_id,omitempty"`
	LogLikelihood      float64   `json:"log_likelihood"`
	SiteLogLikelihoods []float64 `json:"site_log_likelihoods,omitempty"`
	// D1 and D2 are the root-branch log-likelihood derivatives when
	// edge_derivatives was requested; RootBranch is the branch length they
	// were evaluated at (the sum of the root's two child branches).
	D1         float64 `json:"d1,omitempty"`
	D2         float64 `json:"d2,omitempty"`
	RootBranch float64 `json:"root_branch,omitempty"`

	Tips     int      `json:"tips"`
	Sites    int      `json:"sites"`
	Patterns int      `json:"patterns"`
	Pool     PoolInfo `json:"pool"`
}

// compiled is a fully validated, instance-ready form of one request: the
// tree schedule, eigendecomposition, rate mixture and compressed patterns.
type compiled struct {
	key        PoolKey
	tips       int
	patterns   int // exact pattern count before bucket padding
	sites      int
	eigen      *linalg.EigenDecomposition
	freqs      []float64
	rates      []float64
	catWeights []float64
	aln        *alignment // compressed patterns, weights and site map; shared, read-only
	rowOf      []int      // tip index -> alignment row
	sched      *tree.Schedule
	rootLeft   int
	rootRight  int
	rootLen    float64
	wantSite   bool
	wantDeriv  bool
}

// buildModel constructs the substitution model named by the spec.
func buildModel(spec ModelSpec) (*substmodel.Model, error) {
	switch strings.ToUpper(spec.Type) {
	case "JC69":
		return substmodel.NewJC69(), nil
	case "K80":
		return substmodel.NewK80(spec.Kappa)
	case "HKY85", "":
		freqs := spec.Frequencies
		if freqs == nil {
			freqs = []float64{0.25, 0.25, 0.25, 0.25}
		}
		kappa := spec.Kappa
		if kappa == 0 {
			kappa = 2
		}
		return substmodel.NewHKY85(kappa, freqs)
	case "GTR":
		return substmodel.NewGTR(spec.Rates, spec.Frequencies)
	case "GY94":
		return substmodel.NewGY94(spec.Kappa, spec.Omega, spec.Frequencies)
	case "POISSONAA":
		return substmodel.NewPoissonAA(spec.Frequencies)
	case "GTRAA":
		return substmodel.NewGTRAA(spec.Rates, spec.Frequencies)
	case "GENERAL":
		return substmodel.NewGeneralReversible("general", spec.Rates, spec.Frequencies)
	default:
		return nil, fmt.Errorf("serve: unknown model type %q", spec.Type)
	}
}

// modelKey renders a model spec as the exact canonical byte string the eigen
// cache is keyed by: every field length-prefixed, floats by bit pattern, so
// two specs share a key only when they are the same spec (rate categories
// scale branch lengths, not the decomposition, so they stay out of it).
func modelKey(spec ModelSpec) string {
	typ := strings.ToUpper(spec.Type)
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(typ)))
	b = append(b, typ...)
	for _, fs := range [][]float64{{spec.Kappa, spec.Omega}, spec.Rates, spec.Frequencies} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(fs)))
		for _, f := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return string(b)
}

// alignment is the compressed, tree-independent form of a request's
// alignment, and what the compile cache stores. Rows are the tree's tips in
// name order, so any Newick over the same named sequences maps onto it.
// Pattern p's state for row k is the width little-endian bytes at
// cols[(p*rows+k)*width]; width is 1 when every state fits a byte, else 2.
type alignment struct {
	rows, width int
	cols        []byte    // unique columns, ordered by first appearance
	weights     []float64 // per-pattern multiplicity
	siteOf      []int     // site -> pattern index
}

// tipStates widens row k into out, one state index per pattern.
func (a *alignment) tipStates(k int, out []int) {
	for p := range a.weights {
		i := (p*a.rows + k) * a.width
		out[p] = int(a.cols[i])
		if a.width == 2 {
			out[p] |= int(a.cols[i+1]) << 8
		}
	}
}

// compressColumns collapses identical alignment columns into unique patterns
// (ordered by first appearance) with multiplicities and the site-to-pattern
// mapping used to expand per-pattern results back to sites. Columns are keyed
// by their raw state bytes. States beyond 16 bits are stored as 0xffff: any
// value at or above the model's state count means full ambiguity.
func compressColumns(seqs [][]int) *alignment {
	a := &alignment{rows: len(seqs), width: 1, siteOf: make([]int, len(seqs[0]))}
	for _, seq := range seqs {
		for _, v := range seq {
			if v > math.MaxUint8 {
				a.width = 2
			}
		}
	}
	index := make(map[string]int)
	col := make([]byte, a.rows*a.width)
	for site := range a.siteOf {
		for k, seq := range seqs {
			v := min(seq[site], math.MaxUint16)
			col[k*a.width] = byte(v)
			if a.width == 2 {
				col[2*k+1] = byte(v >> 8)
			}
		}
		p, seen := index[string(col)]
		if !seen {
			p = len(a.weights)
			index[string(col)] = p
			a.cols = append(a.cols, col...)
			a.weights = append(a.weights, 0)
		}
		a.weights[p]++
		a.siteOf[site] = p
	}
	return a
}

// alignmentFor returns the compressed alignment of the request's rows for
// the given tips (sorted by name), decoding and compressing only when no
// request with the same content was compiled before. The cache key is a
// SHA-256 over the state count and the length-framed (name, row) pairs, so a
// hit needs no comparison against the stored content.
func (s *Server) alignmentFor(req *EvaluateRequest, byName []*tree.Node, stateCount int) (*alignment, error) {
	h := sha256.New()
	word := make([]byte, 8)
	put := func(v int) {
		binary.LittleEndian.PutUint64(word, uint64(v))
		h.Write(word)
	}
	put(stateCount)
	put(len(byName))
	for _, tip := range byName {
		raw, chars, err := tipRow(req, tip.Name)
		if err != nil {
			return nil, err
		}
		put(len(tip.Name))
		io.WriteString(h, tip.Name)
		put(len(raw))
		for _, v := range raw {
			put(v)
		}
		put(len(chars))
		io.WriteString(h, chars)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	if a, ok := s.alignments.get(key); ok {
		return a, nil
	}
	seqs, err := decodeSequences(req, byName, stateCount)
	if err != nil {
		return nil, err
	}
	a := compressColumns(seqs)
	s.alignments.add(key, a, int64(cap(a.cols)+8*cap(a.weights)+8*cap(a.siteOf)))
	return a, nil
}

// compile validates a request against the server's limits and produces its
// instance-ready form. The eigendecomposition is served from the content-
// addressed cache when an identical model was compiled before.
func (s *Server) compile(req *EvaluateRequest) (*compiled, error) {
	tr, err := tree.ParseNewick(req.Newick)
	if err != nil {
		return nil, fmt.Errorf("newick: %w", err)
	}
	if tr.TipCount > s.opts.MaxTips {
		return nil, fmt.Errorf("tree has %d tips, server limit is %d", tr.TipCount, s.opts.MaxTips)
	}
	model, err := buildModel(req.Model)
	if err != nil {
		return nil, err
	}

	var rates *substmodel.SiteRates
	if req.Gamma != nil {
		rates, err = substmodel.GammaRates(req.Gamma.Alpha, req.Gamma.Categories)
		if err != nil {
			return nil, err
		}
	} else {
		rates = substmodel.SingleRate()
	}

	if len(req.Sequences) == 0 && len(req.States) == 0 {
		return nil, fmt.Errorf("request has neither sequences nor states")
	}
	byName := append([]*tree.Node(nil), tr.Tips()...)
	slices.SortFunc(byName, func(a, b *tree.Node) int { return strings.Compare(a.Name, b.Name) })
	aln, err := s.alignmentFor(req, byName, model.StateCount)
	if err != nil {
		return nil, err
	}
	patterns := len(aln.weights)
	if patterns > s.opts.MaxPatterns {
		return nil, fmt.Errorf("alignment compresses to %d patterns, server limit is %d", patterns, s.opts.MaxPatterns)
	}

	eigen, err := s.eigenFor(req.Model, model)
	if err != nil {
		return nil, err
	}

	single := false
	switch strings.ToLower(req.Precision) {
	case "", "double":
	case "single":
		single = true
	default:
		return nil, fmt.Errorf("precision must be \"double\" or \"single\", got %q", req.Precision)
	}

	rowOf := make([]int, tr.TipCount)
	for k, tip := range byName {
		rowOf[tip.Index] = k
	}

	c := &compiled{
		key: PoolKey{
			States:     model.StateCount,
			Patterns:   bucketPatterns(patterns),
			Tips:       bucketTips(tr.TipCount),
			Categories: len(rates.Rates),
			Single:     single,
			Flags:      s.opts.Flags,
		},
		tips:       tr.TipCount,
		patterns:   patterns,
		sites:      len(aln.siteOf),
		eigen:      eigen,
		freqs:      model.Frequencies,
		rates:      rates.Rates,
		catWeights: rates.Weights,
		aln:        aln,
		rowOf:      rowOf,
		sched:      tr.FullSchedule(),
		rootLeft:   tr.Root.Left.Index,
		rootRight:  tr.Root.Right.Index,
		rootLen:    tr.Root.Left.Length + tr.Root.Right.Length,
		wantSite:   req.SiteLogLikelihoods,
		wantDeriv:  req.EdgeDerivatives,
	}
	return c, nil
}

// tipRow returns a tip's alignment row as it arrived on the wire: raw state
// indices when the request lists the name under states, else its characters.
func tipRow(req *EvaluateRequest, name string) (raw []int, chars string, err error) {
	if raw, ok := req.States[name]; ok {
		return raw, "", nil
	}
	if chars, ok := req.Sequences[name]; ok {
		return nil, chars, nil
	}
	return nil, "", fmt.Errorf("no sequence for tip %q", name)
}

// decodeSequences turns the request's character sequences (via the library's
// FASTA alphabet tables: 4 = IUPAC nucleotide, 20 = amino acid) or raw state
// indices into one state sequence per tip, in the order the tips are given.
func decodeSequences(req *EvaluateRequest, tips []*tree.Node, stateCount int) ([][]int, error) {
	seqs := make([][]int, len(tips))
	for k, tip := range tips {
		states, chars, err := tipRow(req, tip.Name)
		if err != nil {
			return nil, err
		}
		if states == nil {
			if states, err = seqgen.DecodeSequence(chars, stateCount); err != nil {
				return nil, fmt.Errorf("tip %q: %w", tip.Name, err)
			}
		}
		for i, v := range states {
			if v < 0 {
				return nil, fmt.Errorf("tip %q: negative state %d at site %d", tip.Name, v, i)
			}
		}
		seqs[k] = states
		if len(states) != len(seqs[0]) {
			return nil, fmt.Errorf("tip %q has %d sites, want %d (alignment must be rectangular)", tip.Name, len(states), len(seqs[0]))
		}
	}
	if len(seqs[0]) == 0 {
		return nil, fmt.Errorf("alignment has no sites")
	}
	return seqs, nil
}
