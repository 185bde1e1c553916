package multiimpl

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/substmodel"
)

// FuzzInstanceSequence checks state, not arithmetic: bytes decode to a
// program of up to seqMaxCalls engine calls on one geometry — tip states,
// tip partials and partials set between evaluations, matrices, random
// operation batches (some scaled, some reading back), root and edge
// likelihoods, edge derivatives, GetPartials, scale buffers and, on the
// multi-device engine, a forced rebalance — and runs it in lockstep on every
// CPU mode with and without reuse and on a two-backend multi-device engine
// with rebalancing. The model is a fresh Serial engine without reuse. Every
// kind must fail exactly where the model fails and otherwise return its
// bits; the multi-device engine's edge likelihoods add per-backend sums, so
// there they must agree to rounding.
//
// The geometry puts compact subtrees (internal/engine/compact.go) in play:
// at 520 patterns a node of up to three compact-state tips is a class table
// on the single-backend engines, and the multi-device backends' shares keep
// cherries compact until a rebalance moves them.
func FuzzInstanceSequence(f *testing.F) {
	for _, seed := range seqSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runSequence(t, data)
	})
}

const (
	seqTips      = 5
	seqBuffers   = 10 // tips 0–4, internal 5–9
	seqMatrices  = 10 // 8 and 9 also receive derivative matrices
	seqScales    = 4
	seqPatterns  = 520
	seqCats      = 2
	seqMaxCalls  = 64
	seqMaxBatch  = 6
	seqNoScale   = 0
	seqDeriv1    = 8
	seqDeriv2    = 9
	seqSingleBit = 1
)

// The calls a program is made of; a call's first byte picks one, modulo
// numCalls.
const (
	callTipStates = iota
	callTipPartials
	callPartials
	callMatrices
	callUpdate
	callRoot
	callEdge
	callDerivatives
	callGetPartials
	callRebalance
	callScale
	numCalls
)

// seqReader hands out a program's bytes, zeros once they run out.
type seqReader struct {
	data []byte
	pos  int
}

func (r *seqReader) next() int {
	if r.pos >= len(r.data) {
		r.pos++
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// seqStream is a small deterministic generator, so that one byte can stand
// for a whole pattern-length vector.
type seqStream uint64

func (s *seqStream) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return uint64(*s) >> 33
}

// seqEntry draws a partials entry: zeros, ones, tiny and ordinary values.
func (s *seqStream) entry() float64 {
	switch v := s.next(); v % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 1e-30 * float64(v%7+1)
	default:
		return float64(v%1000+1) / 1000
	}
}

// seqKind is one engine the program runs on.
type seqKind struct {
	name  string
	eng   engine.Engine
	multi *Engine // the multi-device engine, nil otherwise
}

// seqResult is what a call returned: its values, or that it failed.
type seqResult struct {
	vals   []float64
	failed bool
	err    error
}

// seqCall is one decoded call, applied to every kind in turn.
type seqCall struct {
	what  string
	apply func(k *seqKind) seqResult
	// edge marks the likelihoods across one branch, which the multi-device
	// engine sums per backend.
	edge bool
}

func runSequence(t *testing.T, data []byte) {
	r := &seqReader{data: data}
	single := r.next()&seqSingleBit != 0
	cfg := engine.Config{
		TipCount: seqTips, PartialsBuffers: seqBuffers, MatrixBuffers: seqMatrices,
		EigenBuffers: 1, ScaleBuffers: seqScales,
		Dims:            kernels.Dims{StateCount: 4, PatternCount: seqPatterns, CategoryCount: seqCats},
		SinglePrecision: single, Threads: 2,
	}
	kinds := seqKinds(t, cfg)
	defer func() {
		for _, k := range kinds {
			k.eng.Close()
		}
	}()
	seqLoad(t, kinds)
	for i := 0; i < seqMaxCalls && r.pos < len(r.data); i++ {
		call := seqDecode(r)
		want := call.apply(&kinds[0])
		for k := 1; k < len(kinds); k++ {
			got := call.apply(&kinds[k])
			if msg := seqCompare(want, got, call.edge && kinds[k].multi != nil, single); msg != "" {
				t.Fatalf("call %d %s on %s: %s (model: %v, kind: %v)", i, call.what, kinds[k].name, msg, want.err, got.err)
			}
		}
	}
}

// seqKinds builds the model and every kind checked against it.
func seqKinds(t *testing.T, cfg engine.Config) []seqKind {
	t.Helper()
	var kinds []seqKind
	add := func(name string, e engine.Engine, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kinds = append(kinds, seqKind{name: name, eng: e})
	}
	model, err := cpuimpl.New(cfg, cpuimpl.Serial)
	add("model", model, err)
	for _, mode := range cpuimpl.Modes() {
		for _, reuse := range []bool{false, true} {
			if mode == cpuimpl.Serial && !reuse {
				continue
			}
			c := cfg
			c.Reuse = reuse
			e, err := cpuimpl.New(c, mode)
			add(fmt.Sprintf("%v reuse=%v", mode, reuse), e, err)
		}
	}
	multi, err := NewBalanced(cfg, []Builder{cpuBuilder(cpuimpl.SSE), cpuBuilder(cpuimpl.ThreadPoolHybrid)},
		[]float64{1, 1}, Options{Rebalance: true, Interval: 1 << 30})
	add("multi-device", multi, err)
	if multi != nil {
		kinds[len(kinds)-1].multi = multi
	}
	return kinds
}

// seqLoad gives every kind the same model and tip states, and computes
// every matrix, so that a program starts from an engine ready to evaluate.
func seqLoad(t *testing.T, kinds []seqKind) {
	t.Helper()
	m, err := substmodel.NewHKY85(2.5, []float64{0.3, 0.2, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	rates, err := substmodel.GammaRates(0.5, seqCats)
	if err != nil {
		t.Fatal(err)
	}
	wts := make([]float64, seqPatterns)
	for p := range wts {
		wts[p] = float64(1 + p%3)
	}
	mats := make([]int, seqMatrices)
	lens := make([]float64, seqMatrices)
	for i := range mats {
		mats[i], lens[i] = i, 0.05*float64(i+1)
	}
	for _, k := range kinds {
		e := k.eng
		errs := []error{
			e.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
			e.SetCategoryRates(rates.Rates),
			e.SetCategoryWeights(rates.Weights),
			e.SetStateFrequencies(m.Frequencies),
			e.SetPatternWeights(wts),
			e.UpdateTransitionMatrices(0, mats, lens),
		}
		for tip := 0; tip < seqTips; tip++ {
			errs = append(errs, e.SetTipStates(tip, seqStates(tip+1)))
		}
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s: loading: %v", k.name, err)
		}
	}
}

// seqStates is a tip's states drawn from seed: the four states, the gap
// code and a value past it, which the engines store as the gap. Seeds 200 to
// 202 draw that value from 5…99 instead, and seed 255 also puts a negative
// state in, which every engine must refuse.
func seqStates(seed int) []int {
	s := seqStream(seed)
	out := make([]int, seqPatterns)
	for p := range out {
		v := s.next()
		if out[p] = int(v % 6); out[p] == 5 && seed >= 200 && seed <= 202 {
			out[p] += int(v / 6 % 95)
		}
	}
	if seed == 255 {
		out[3] = -1
	}
	return out
}

// seqVector is n entries drawn from seed.
func seqVector(seed, n int) []float64 {
	s := seqStream(seed + 1000)
	out := make([]float64, n)
	for i := range out {
		out[i] = s.entry()
	}
	return out
}

// seqDest maps a byte to a destination: an internal buffer, or any buffer
// when its top bit is set.
func seqDest(b int) int {
	if b&0x80 != 0 {
		return b % seqBuffers
	}
	return seqTips + b%(seqBuffers-seqTips)
}

// seqScale maps a byte to a scale buffer, or None for most values.
func seqScale(b int) int {
	if b%4 != 1 {
		return engine.None
	}
	return b / 4 % seqScales
}

// seqDecode reads one call.
func seqDecode(r *seqReader) seqCall {
	switch op := r.next() % numCalls; op {
	case callTipStates:
		tip, seed := r.next()%seqTips, r.next()
		states := seqStates(seed)
		return seqCall{what: fmt.Sprintf("SetTipStates(%d, seed %d)", tip, seed), apply: func(k *seqKind) seqResult {
			return seqErr(k.eng.SetTipStates(tip, states))
		}}
	case callTipPartials:
		tip, seed := r.next()%seqTips, r.next()
		v := seqVector(seed, seqPatterns*4)
		return seqCall{what: fmt.Sprintf("SetTipPartials(%d, seed %d)", tip, seed), apply: func(k *seqKind) seqResult {
			return seqErr(k.eng.SetTipPartials(tip, v))
		}}
	case callPartials:
		buf, seed := r.next()%seqBuffers, r.next()
		v := seqVector(seed, seqPatterns*4*seqCats)
		return seqCall{what: fmt.Sprintf("SetPartials(%d, seed %d)", buf, seed), apply: func(k *seqKind) seqResult {
			return seqErr(k.eng.SetPartials(buf, v))
		}}
	case callMatrices:
		seed := r.next()
		s := seqStream(seed)
		mats := make([]int, seqMatrices)
		lens := make([]float64, seqMatrices)
		for i := range mats {
			mats[i], lens[i] = i, float64(s.next()%200)/100
		}
		return seqCall{what: fmt.Sprintf("UpdateTransitionMatrices(seed %d)", seed), apply: func(k *seqKind) seqResult {
			return seqErr(k.eng.UpdateTransitionMatrices(0, mats, lens))
		}}
	case callUpdate:
		ops := make([]engine.Operation, 1+r.next()%seqMaxBatch)
		for i := range ops {
			ops[i] = engine.Operation{Dest: seqDest(r.next()),
				Child1: r.next() % seqBuffers, Child1Mat: r.next() % seqMatrices,
				Child2: r.next() % seqBuffers, Child2Mat: r.next() % seqMatrices}
			sc := r.next()
			ops[i].DestScaleWrite, ops[i].DestScaleRead = seqScale(sc), seqScale(sc>>4)
		}
		return seqCall{what: fmt.Sprintf("UpdatePartials(%v)", ops), apply: func(k *seqKind) seqResult {
			return seqErr(k.eng.UpdatePartials(ops))
		}}
	case callRoot:
		buf, cum := r.next()%seqBuffers, seqScale(r.next())
		return seqCall{what: fmt.Sprintf("CalculateRootLogLikelihoods(%d, %d)", buf, cum), apply: func(k *seqKind) seqResult {
			lnL, err := k.eng.CalculateRootLogLikelihoods(buf, cum)
			return seqResult{vals: []float64{lnL}, failed: err != nil, err: err}
		}}
	case callEdge:
		parent, child, m := r.next()%seqBuffers, r.next()%seqBuffers, r.next()%seqMatrices
		return seqCall{what: fmt.Sprintf("CalculateEdgeLogLikelihoods(%d, %d, %d)", parent, child, m), edge: true,
			apply: func(k *seqKind) seqResult {
				lnL, err := k.eng.CalculateEdgeLogLikelihoods(parent, child, m, engine.None)
				return seqResult{vals: []float64{lnL}, failed: err != nil, err: err}
			}}
	case callDerivatives:
		parent, child, m, l := r.next()%seqBuffers, r.next()%seqBuffers, r.next()%seqDeriv1, float64(r.next())/64
		return seqCall{what: fmt.Sprintf("CalculateEdgeDerivatives(%d, %d, %d, t=%v)", parent, child, m, l), edge: true,
			apply: func(k *seqKind) seqResult {
				if err := k.eng.UpdateTransitionDerivatives(0, []int{seqDeriv1}, []int{seqDeriv2}, []float64{l}); err != nil {
					return seqErr(err)
				}
				lnL, d1, d2, err := k.eng.CalculateEdgeDerivatives(parent, child, m, seqDeriv1, seqDeriv2, engine.None)
				return seqResult{vals: []float64{lnL, d1, d2}, failed: err != nil, err: err}
			}}
	case callGetPartials:
		buf := r.next() % seqBuffers
		return seqCall{what: fmt.Sprintf("GetPartials(%d)", buf), apply: func(k *seqKind) seqResult {
			v, err := k.eng.GetPartials(buf)
			return seqResult{vals: v, failed: err != nil, err: err}
		}}
	case callRebalance:
		hi := 1 + r.next()*(seqPatterns-2)/255
		return seqCall{what: fmt.Sprintf("rebalance to [0, %d)", hi), apply: func(k *seqKind) seqResult {
			if k.multi == nil {
				return seqResult{}
			}
			k.multi.mu.Lock()
			defer k.multi.mu.Unlock()
			_, err := k.multi.migrate([]int{hi, seqPatterns})
			return seqErr(err)
		}}
	default: // callScale
		b, cum := r.next(), r.next()%seqScales
		if b&1 == 0 {
			return seqCall{what: fmt.Sprintf("ResetScaleFactors(%d)", cum), apply: func(k *seqKind) seqResult {
				return seqErr(k.eng.ResetScaleFactors(cum))
			}}
		}
		var bufs []int
		for i := 0; i < seqScales; i++ {
			if b>>(i+1)&1 != 0 {
				bufs = append(bufs, i)
			}
		}
		return seqCall{what: fmt.Sprintf("AccumulateScaleFactors(%v, %d)", bufs, cum), apply: func(k *seqKind) seqResult {
			return seqErr(k.eng.AccumulateScaleFactors(bufs, cum))
		}}
	}
}

func seqErr(err error) seqResult { return seqResult{failed: err != nil, err: err} }

// seqCompare reports how got differs from the model's want, or "".
func seqCompare(want, got seqResult, sums, single bool) string {
	if want.failed != got.failed {
		return "fails where the model does not, or the reverse"
	}
	if want.failed {
		return ""
	}
	if len(want.vals) != len(got.vals) {
		return fmt.Sprintf("%d values, model %d", len(got.vals), len(want.vals))
	}
	tol := 1e-12
	if single {
		tol = 1e-5
	}
	for i, w := range want.vals {
		g := got.vals[i]
		same := math.Float64bits(g) == math.Float64bits(w) || (g != g && w != w)
		if !same && sums && math.Abs(g-w) <= tol*math.Max(math.Abs(g), math.Abs(w)) {
			same = true
		}
		if !same {
			return fmt.Sprintf("value %d is %v (%#x), model %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return ""
}

// seqProgram encodes a program for the seed corpus: a flags byte and the
// calls' bytes as seqDecode reads them.
func seqProgram(single bool, calls ...[]byte) []byte {
	out := []byte{0}
	if single {
		out[0] = seqSingleBit
	}
	for _, c := range calls {
		out = append(out, c...)
	}
	return out
}

// seqOp encodes one operation of an UpdatePartials call, unscaled.
func seqOp(dest, c1, m1, c2, m2 int) []byte {
	return []byte{byte(dest - seqTips), byte(c1), byte(m1), byte(c2), byte(m2), seqNoScale}
}

// seqScaled is op with scale byte sc: it writes scale buffer seqScale(sc)
// and reads seqScale(sc>>4).
func seqScaled(op []byte, sc byte) []byte {
	out := append([]byte(nil), op...)
	out[len(out)-1] = sc
	return out
}

// seqUpdate encodes an UpdatePartials call of the given operations.
func seqUpdate(ops ...[]byte) []byte {
	out := []byte{callUpdate, byte(len(ops) - 1)}
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// seqSeeds is the corpus: each program aims at one way a compact subtree's
// hidden state could go stale or leak.
func seqSeeds() [][]byte {
	cherry := seqOp(5, 0, 0, 1, 1)     // 25 classes: compact
	triple := seqOp(6, 5, 5, 2, 2)     // 125 classes: compact on one engine
	quad := seqOp(7, 6, 6, 3, 3)       // 625: full width, gathers both
	pair := seqOp(8, 3, 3, 4, 4)       // a second cherry
	root := seqOp(9, 7, 7, 8, 8)       // full width over a gathered child
	evalRoot := []byte{callRoot, 9, 0} // no cumulative scale
	get := func(b int) []byte { return []byte{callGetPartials, byte(b)} }
	edge := []byte{callEdge, 9, 5, 6}
	deriv := []byte{callDerivatives, 7, 8, 2, 20}
	// A peel whose cherries and triple rescale into buffers 0, 1 and 2, the
	// factors reset and accumulated into 3, and the root integrated with them.
	scaled := seqUpdate(seqScaled(cherry, 1), seqScaled(triple, 9), quad, seqScaled(pair, 5), root)
	accumulate := []byte{callScale, 0, 3, callScale, 15, 3}
	scaledRoot := []byte{callRoot, 9, 13}
	tipsGathered := seqTipsGathered()
	return [][]byte{
		// A compact tree, read back at every boundary.
		seqProgram(false, seqUpdate(cherry, triple, quad, pair, root), evalRoot, get(5), get(6), get(7), edge, deriv),
		seqProgram(true, seqUpdate(cherry, triple, quad, pair, root), evalRoot, get(5), edge),
		// New tip states under a cached class-id vector.
		seqProgram(false, seqUpdate(cherry, triple, quad, pair, root), evalRoot,
			[]byte{callTipStates, 0, 77}, seqUpdate(cherry, triple, quad, pair, root), evalRoot, get(5)),
		// Tip partials, then states again, under the same tree.
		seqProgram(false, seqUpdate(cherry, pair, root), []byte{callTipPartials, 1, 9}, seqUpdate(cherry, pair, root),
			evalRoot, get(1), []byte{callTipStates, 1, 3}, seqUpdate(cherry, pair, root), evalRoot, get(1), get(5)),
		// A full-width reader of buffer 5 listed before a compact writer
		// of it: the writer must not run ahead of the reader.
		seqProgram(false, []byte{callPartials, 8, 4}, seqUpdate(cherry),
			seqUpdate(seqOp(7, 5, 1, 8, 2), seqOp(5, 3, 3, 4, 4)), get(7), get(5)),
		// Compact nodes across a rebalance, and back.
		seqProgram(false, seqUpdate(cherry, triple, quad, pair, root), []byte{callRebalance, 40}, evalRoot, get(5),
			seqUpdate(cherry, triple, quad, pair, root), evalRoot, []byte{callRebalance, 200}, get(6), evalRoot),
		// A batch that fails validation leaves no destination to read, and
		// no operation computes in place.
		seqProgram(false, seqUpdate(cherry, seqOp(6, 5, 5, 7, 7)), []byte{callRoot, 6, 0}, get(6),
			seqUpdate(cherry, seqOp(6, 6, 6, 0, 0)), get(6)),
		// Rescaling cherries and a rescaling triple kept as class tables,
		// read at every boundary, across a forced rebalance and back.
		seqProgram(false, scaled, accumulate, scaledRoot, get(5), []byte{callRebalance, 40}, accumulate, scaledRoot,
			get(6), scaled, accumulate, scaledRoot, []byte{callRebalance, 200}, scaled, accumulate, scaledRoot, edge),
		seqProgram(true, scaled, accumulate, scaledRoot, []byte{callRebalance, 40}, scaled, accumulate, scaledRoot, get(5)),
		// A rescaling cherry listed after a full-width writer of its scale
		// buffer, then after a full-width reader of it: both stay full width.
		seqProgram(false, []byte{callPartials, 8, 4}, seqUpdate(seqScaled(cherry, 1)),
			seqUpdate(seqScaled(seqOp(7, 5, 1, 8, 2), 1), seqScaled(seqOp(5, 3, 3, 4, 4), 1)), get(7), get(5),
			seqUpdate(seqScaled(seqOp(7, 5, 1, 8, 2), 0x10), seqScaled(seqOp(6, 0, 0, 1, 1), 1)), get(7), get(6),
			[]byte{callScale, 0, 3, callScale, 3, 3}, []byte{callRoot, 7, 13}),
		// Scaled operations over compact children, and the reuse filter
		// after a partials setter.
		seqProgram(false, seqUpdate(cherry, []byte{byte(6 - seqTips), 5, 5, 2, 2, 1}), []byte{callRoot, 6, 0},
			[]byte{callPartials, 5, 8}, seqUpdate([]byte{byte(6 - seqTips), 5, 5, 2, 2, 1}), []byte{callRoot, 6, 0}),
		// Tips gathered beside full-width operations, in both precisions.
		seqProgram(false, tipsGathered...),
		seqProgram(true, tipsGathered...),
	}
}

// seqTipsGathered is a program of fresh tip states (values up to 99) and
// the places where a compact-state tip meets a full-width operation: beside
// a partials child, in a cherry that reads a scale buffer, and in a cherry
// listed after a full-width operation on its destination, run again after a
// forced rebalance leaves one backend 82 patterns, where every cherry is
// full width, and once more after a rebalance back.
func seqTipsGathered() [][]byte {
	gathered := seqUpdate(
		seqOp(5, 0, 0, 3, 3),                  // a tip beside tip 3's partials
		seqScaled(seqOp(6, 1, 1, 2, 2), 1),    // a cherry rescaling into scale buffer 0
		seqScaled(seqOp(7, 0, 0, 1, 1), 0x10), // a cherry reading scale buffer 0
		seqOp(9, 5, 5, 7, 7))
	after := seqUpdate(
		seqOp(8, 6, 6, 3, 3), // a full-width reader of buffer 6
		seqOp(6, 0, 0, 1, 1), // then a cherry into it
		seqOp(9, 6, 6, 8, 8))
	read := []byte{callRoot, 9, 0, callEdge, 9, 6, 6, callGetPartials, 5, callGetPartials, 6, callGetPartials, 7}
	return [][]byte{
		{callTipStates, 0, 200}, {callTipStates, 1, 201}, {callTipStates, 2, 202}, {callTipPartials, 3, 9},
		gathered, read, after, read,
		{callRebalance, 40}, gathered, read, after, read,
		{callRebalance, 200}, gathered, read, after, read,
	}
}
