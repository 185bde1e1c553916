package main

import (
	"fmt"
	"time"

	"gobeagle"
	"gobeagle/internal/tree"
)

// The mcmc_reuse proposal stream is built in blocks of movesPerBlock moves
// with exactly one all-dirty move (a new κ, so every matrix and partial is
// invalid) per block: 2 % all-dirty, 98 % single-branch, in every block, so
// a round's mix does not depend on where it stops. Rounds stop at block
// boundaries.
const movesPerBlock = 50

// rejectShare is the share of branch proposals that are "rejected": the
// branch gets its old length back before the next proposal is evaluated.
const rejectShare = 0.7

// move is one proposal: a new length for one branch, or a new κ.
type move struct {
	allDirty bool
	branch   int // index into the problem's matrix/length lists
	length   float64
	reject   bool
	kappa    float64
}

// chainMode is how a chain submits a proposal to the library.
type chainMode int

const (
	// chainFull resubmits the full schedule every move (what a client
	// without dirty bookkeeping does); with FlagReuse the library skips the
	// clean part, without it everything is recomputed.
	chainFull chainMode = iota
	// chainOracle keeps its own dirty bookkeeping and submits
	// tree.DirtySchedule — the least work a client can ask for.
	chainOracle
)

// chain is one instance walking the proposal stream.
type chain struct {
	inst  *gobeagle.Instance
	mode  chainMode
	p     *problem
	tr    *tree.Tree // private clone: the oracle reads dirty lengths from it
	plan  *evalPlan  // the full schedule over the chain's own branch lengths
	kappa float64    // the model's current κ
	// pending is the branch a rejected proposal must restore before the
	// next evaluation (-1: none), saved its length.
	pending int
	saved   float64
}

func newChain(p *problem, flags gobeagle.Flags, mode chainMode) (*chain, error) {
	inst, err := gobeagle.NewInstance(p.config(flags, 0))
	if err != nil {
		return nil, err
	}
	if err := p.load(inst); err != nil {
		inst.Finalize()
		return nil, err
	}
	pl := p.plan()
	pl.lens = append([]float64(nil), p.lens...)
	return &chain{inst: inst, mode: mode, p: p, tr: p.tr.Clone(), pending: -1, plan: pl, kappa: p.kappa}, nil
}

// first evaluates the initial state in full.
func (c *chain) first() (float64, error) {
	return c.evalFull(nil, -1)
}

func (c *chain) evalFull(ln *lane, op int64) (float64, error) {
	return evalInstance(c.inst, c.plan, ln, op)
}

const (
	spanEigen    = "substmodel.Eigen"
	spanSetEigen = "instance.SetEigenDecomposition"
)

// step applies one proposal (after restoring a rejected predecessor) and
// returns the new log likelihood.
func (c *chain) step(m move, ln *lane, op int64) (float64, error) {
	e := ln.begin("move", op)
	defer ln.end(e)
	var dirty []*tree.Node
	setLen := func(branch int, l float64) {
		c.plan.lens[branch] = l
		if c.mode == chainOracle {
			n := c.tr.Node(c.p.mats[branch])
			n.Length = l
			dirty = append(dirty, n)
		}
	}
	if c.pending >= 0 {
		setLen(c.pending, c.saved)
		c.pending = -1
	}
	if m.allDirty {
		s := ln.begin(spanEigen, op)
		vals, vecs, inv, err := modelEigen(c.p.states, m.kappa, c.p.omega, c.p.freqs)
		ln.end(s)
		if err != nil {
			return 0, err
		}
		s = ln.begin(spanSetEigen, op)
		err = c.inst.SetEigenDecomposition(0, vals, vecs, inv)
		ln.end(s)
		if err != nil {
			return 0, err
		}
		c.kappa = m.kappa
		return c.evalFull(ln, op)
	}
	old := c.plan.lens[m.branch]
	setLen(m.branch, m.length)
	if m.reject {
		c.pending, c.saved = m.branch, old
	}
	if c.mode == chainFull {
		return c.evalFull(ln, op)
	}
	sched := c.tr.DirtySchedule(dirty)
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := c.inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		return 0, err
	}
	if err := c.inst.UpdatePartials(toOperations(sched.Ops, false)); err != nil {
		return 0, err
	}
	return c.inst.CalculateRootLogLikelihoods(sched.Root, gobeagle.None)
}

// mcmcWorkload drives a seeded proposal stream through a FlagReuse instance
// that resubmits the full schedule every move.
type mcmcWorkload struct {
	shape shape
	p     *problem
	seed  *rng
	moves []move // the stream, extended on demand; every round replays it from 0

	// The reference is an oracle chain on a serial instance without
	// FlagReuse: it shares no reuse-layer code with the measured chain. It
	// persists across rounds, so each move's reference value is computed
	// once; every movesPerBlock-th value is itself checked against a full
	// recomputation on a cpuimpl engine.
	refChain *chain
	refTrace []float64
	refFirst float64
}

func (w *mcmcWorkload) flops() float64 { return w.p.flops() }

func (w *mcmcWorkload) pinned() pinnedEntry {
	// The initial state, the first moves, and the end of the first block
	// (by when the block's all-dirty move has happened).
	vals := append([]float64{w.refFirst}, w.refTrace[:8]...)
	return pinnedEntry{Digest: w.p.digest(), Values: append(vals, w.refTrace[movesPerBlock-1])}
}

func (w *mcmcWorkload) prepare(seed uint64, _ time.Duration) error {
	p, err := newProblem(fixedTopology(w.shape.tips), newRNG(seed, "mcmc_reuse"), w.shape)
	if err != nil {
		return err
	}
	w.p = p
	w.seed = newRNG(seed, "mcmc_reuse/proposals")
	if w.refChain, err = newChain(p, 0, chainOracle); err != nil {
		return err
	}
	if w.refFirst, err = w.refChain.first(); err != nil {
		return err
	}
	full, err := referenceLnL(p, false)
	if err != nil {
		return err
	}
	if full != w.refFirst {
		return fmt.Errorf("mcmc_reuse: reference chain %v disagrees with cpuimpl reference %v", w.refFirst, full)
	}
	return w.extendRef(movesPerBlock)
}

// extendStream generates blocks until the stream holds at least n moves.
func (w *mcmcWorkload) extendStream(n int) {
	for len(w.moves) < n {
		dirtyAt := w.seed.Intn(movesPerBlock)
		for i := 0; i < movesPerBlock; i++ {
			if i == dirtyAt {
				w.moves = append(w.moves, move{allDirty: true, kappa: w.seed.Range(1.5, 4)})
				continue
			}
			w.moves = append(w.moves, move{
				branch: w.seed.Intn(len(w.p.lens)),
				length: w.seed.Range(0.01, 0.4),
				reject: w.seed.Float64() < rejectShare,
			})
		}
	}
}

// extendRef advances the reference chain until it covers n moves, checking
// the state at each block end against a full recomputation.
func (w *mcmcWorkload) extendRef(n int) error {
	w.extendStream(n)
	for i := len(w.refTrace); i < n; i++ {
		lnL, err := w.refChain.step(w.moves[i], nil, -1)
		if err != nil {
			return err
		}
		w.refTrace = append(w.refTrace, lnL)
		if (i+1)%movesPerBlock == 0 {
			p := *w.p
			p.lens = w.refChain.plan.lens
			if p.eigVals, p.eigVecs, p.eigInv, err = modelEigen(p.states, w.refChain.kappa, p.omega, p.freqs); err != nil {
				return err
			}
			full, err := referenceLnL(&p, false)
			if err != nil {
				return err
			}
			if relErr(lnL, full) > 1e-9 {
				return fmt.Errorf("mcmc_reuse: reference chain drifted at move %d: %v vs full %v", i, lnL, full)
			}
		}
	}
	return nil
}

func (w *mcmcWorkload) round(dur time.Duration, ln *lane) (roundResult, error) {
	return w.roundWith(dur, ln, gobeagle.FlagReuse, chainFull, nil)
}

// roundWith runs one round with the given instance flags and submission
// mode; the layer probes reuse it for the flag-off and oracle comparisons.
// dirtyLat, when non-nil, receives the all-dirty moves' times (ms).
func (w *mcmcWorkload) roundWith(dur time.Duration, ln *lane, flags gobeagle.Flags, mode chainMode, dirtyLat *[]float64) (roundResult, error) {
	var r roundResult
	var c *chain
	serial := burstShape{width: 1}
	stop, err := r.timedSetups(serial, func() (bool, func(), error) {
		ch, err := newChain(w.p, flags, mode)
		if err != nil {
			return false, nil, err
		}
		lnL, err := ch.first()
		if err != nil {
			ch.inst.Finalize()
			return false, nil, err
		}
		c = ch
		return relErr(lnL, w.refFirst) <= 1e-9, func() { ch.inst.Finalize() }, nil
	})
	if err != nil {
		return r, err
	}
	defer stop()

	var got []float64
	from := ln.mark()
	reuse0 := c.inst.ReuseStats()
	cal := newCalibrator(serial)
	start := time.Now()
	for i := 0; ; i++ {
		if i%movesPerBlock == 0 {
			if i == movesPerBlock {
				r.reuse = reuseDelta(reuse0, c.inst.ReuseStats())
			}
			if i > 0 && time.Since(start) >= dur {
				break
			}
			w.extendStream(i + movesPerBlock)
		}
		t := time.Now()
		lnL, err := c.step(w.moves[i], ln, int64(i))
		d := float64(time.Since(t)) / 1e6
		if err != nil {
			return r, err
		}
		r.closed = append(r.closed, d)
		got = append(got, lnL)
		cal.opDone()
	}
	r.wallS = time.Since(start).Seconds()
	r.scaled, r.calibMs = cal.normalise(r.closed), cal.ms()

	if err := w.extendRef(len(got)); err != nil {
		return r, err
	}
	if dirtyLat != nil {
		for i, d := range r.closed {
			if w.moves[i].allDirty {
				*dirtyLat = append(*dirtyLat, d)
			}
		}
	}
	for i, lnL := range got {
		r.attempted++
		if relErr(lnL, w.refTrace[i]) > 1e-9 {
			r.failed++
			continue
		}
		r.ops++
	}
	if ln != nil {
		// The next block of the stream, untimed: a fixed mix of moves.
		next := len(got)
		w.extendStream(next + movesPerBlock)
		allocs := allocsPerCall(movesPerBlock, func() { c.step(w.moves[next], nil, -1); next++ })
		r.layer = instanceLayer(ln, from, allocs)
	}
	return r, nil
}

// reuseDelta is the counters accumulated between two snapshots.
func reuseDelta(a, b gobeagle.ReuseStats) gobeagle.ReuseStats {
	return gobeagle.ReuseStats{
		Enabled:       b.Enabled,
		OpHits:        b.OpHits - a.OpHits,
		OpMisses:      b.OpMisses - a.OpMisses,
		MatrixHits:    b.MatrixHits - a.MatrixHits,
		MatrixMisses:  b.MatrixMisses - a.MatrixMisses,
		Invalidations: b.Invalidations - a.Invalidations,
	}
}
