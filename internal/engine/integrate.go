package engine

import (
	"fmt"

	"gobeagle/internal/kernels"
	"gobeagle/internal/trace"
)

// Integration is the kind of a likelihood integration's per-pattern body:
// the root's site log likelihoods, the site log likelihoods across one
// branch, or those with their branch-length derivatives.
type Integration int

const (
	IntegrateRoot Integration = iota
	IntegrateEdge
	IntegrateEdgeDerivatives
)

// Integrator is the one step of an integration a backend supplies: it runs
// body over the patterns [0, PatternCount), as one range or as disjoint
// ranges in any order or concurrently, and returns when all have run. scale
// is the cumulative scale buffer the integration reads (nil for None). A
// body leaves each pattern's terms in place — its site log likelihood
// log(site_p) + scale_p in Site, and for derivatives the ratios in the
// derivative buffers — so the log runs wherever the body runs. The store
// validates the operands, sums the terms in one left-to-right order and
// records the span, so every backend returns the same bits.
type Integrator func(kind Integration, body func(lo, hi int), scale []float64) error

// integration is the store's integration state: the backend's Integrator
// (nil runs bodies inline), the bodies, bound once so handing one on
// allocates nothing, and the running call's operands they read: partials,
// matrices, the cumulative scale buffer (nil for None) and derivative
// outputs cut from dd (m2, d2 nil for no second).
type integration[T kernels.Real] struct {
	run               Integrator
	body              [3]func(lo, hi int)
	a, b, m, m1, m2   []T
	scale, d1, d2, dd []float64
}

// SetIntegrator makes run the way the store's integrations run their
// per-pattern bodies; without one they run inline.
func (s *Storage[T]) SetIntegrator(run Integrator) { s.in.run = run }

func (s *Storage[T]) bindIntegration() {
	in := &s.in
	in.body = [...]func(lo, hi int){
		IntegrateRoot: func(lo, hi int) {
			kernels.SiteLikelihoods(s.Site, in.a, s.CatWts, s.Freqs, s.Cfg.Dims, lo, hi)
			kernels.LogSites(s.Site, s.Site, in.scale, lo, hi)
		},
		IntegrateEdge: func(lo, hi int) {
			kernels.EdgeSiteLikelihoods(s.Site, in.a, in.b, in.m, s.CatWts, s.Freqs, s.Cfg.Dims, lo, hi)
			kernels.LogSites(s.Site, s.Site, in.scale, lo, hi)
		},
		IntegrateEdgeDerivatives: func(lo, hi int) {
			kernels.EdgeSiteDerivatives(s.Site, in.d1, in.d2, in.a, in.b, in.m, in.m1, in.m2,
				s.CatWts, s.Freqs, s.Cfg.Dims, lo, hi)
			kernels.EdgeDerivativeRatios(s.Site, in.d1, in.d2, lo, hi)
			kernels.LogSites(s.Site, s.Site, in.scale, lo, hi)
		},
	}
}

// integrate runs the kind's body over every pattern, leaving the site log
// likelihoods in Site.
func (s *Storage[T]) integrate(kind Integration, scale []float64) error {
	s.in.scale = scale
	if s.in.run == nil {
		s.in.body[kind](0, len(s.Site))
		return nil
	}
	return s.in.run(kind, s.in.body[kind], scale)
}

// lnL sums the site log likelihoods in Site, weighted, left to right, and
// ends the call's span of the given kind.
func (s *Storage[T]) lnL(kind trace.Kind, start int64, on bool) float64 {
	lnL := kernels.WeightedSum(0, s.Site, s.PatWts)
	if on {
		s.Cfg.Trace.End(trace.Span{Kind: kind, Lane: int32(s.Cfg.TraceLane), Arg0: int64(len(s.Site))}, start)
	}
	return lnL
}

// partialsOperand returns a buffer an integration reads as its operand slot
// (0 or 1): it must hold partials, not compact tip states. A compact node is
// expanded into the slot's scratch.
func (s *Storage[T]) partialsOperand(buf, slot int) ([]T, error) {
	if err := s.checkPartialsIndex(buf); err != nil {
		return nil, err
	}
	if rec := s.compactLive(buf); rec != nil {
		s.cp.exp[slot] = s.expand(rec, s.cp.exp[slot])
		return s.cp.exp[slot], nil
	}
	kind, _, partials, err := s.ChildOperand(buf)
	if err != nil {
		return nil, err
	}
	if kind != OperandPartials {
		return nil, fmt.Errorf("engine: buffer %d holds compact tip states, the integration needs partials (use SetTipPartials for tips)", buf)
	}
	return partials, nil
}

// rootSites runs the root integration, leaving the site log likelihoods in
// Site.
func (s *Storage[T]) rootSites(rootBuf, cumScaleBuf int) (err error) {
	if s.in.a, err = s.partialsOperand(rootBuf, 0); err != nil {
		return err
	}
	scale, err := s.cumulativeScale(cumScaleBuf)
	if err != nil {
		return err
	}
	return s.integrate(IntegrateRoot, scale)
}

// edgeOperands binds what an integration across one branch reads, the
// partials on either side and the branch's matrix, and returns its
// cumulative scale buffer (nil for None).
func (s *Storage[T]) edgeOperands(parentBuf, childBuf, matrix, cumScaleBuf int) (scale []float64, err error) {
	if s.in.a, err = s.partialsOperand(parentBuf, 0); err != nil {
		return nil, err
	}
	if s.in.b, err = s.partialsOperand(childBuf, 1); err != nil {
		return nil, err
	}
	if s.in.m, err = s.Matrix(matrix); err != nil {
		return nil, err
	}
	return s.cumulativeScale(cumScaleBuf)
}

// CalculateRootLogLikelihoods integrates the root partials into the total
// log likelihood.
func (s *Storage[T]) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	start, on := s.Cfg.Trace.Begin()
	if err := s.rootSites(rootBuf, cumScaleBuf); err != nil {
		return 0, err
	}
	return s.lnL(trace.KindRoot, start, on), nil
}

// SiteLogLikelihoods returns per-pattern root log likelihoods (log site
// likelihood plus accumulated scale factors) in a fresh slice.
func (s *Storage[T]) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	if err := s.rootSites(rootBuf, cumScaleBuf); err != nil {
		return nil, err
	}
	return append([]float64(nil), s.Site...), nil
}

// CalculateEdgeLogLikelihoods integrates across a single branch between the
// parent-side and child-side partials buffers.
func (s *Storage[T]) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	scale, err := s.edgeOperands(parentBuf, childBuf, matrix, cumScaleBuf)
	if err != nil {
		return 0, err
	}
	start, on := s.Cfg.Trace.Begin()
	if err := s.integrate(IntegrateEdge, scale); err != nil {
		return 0, err
	}
	return s.lnL(trace.KindEdge, start, on), nil
}

// CalculateEdgeDerivatives integrates across a single branch and returns
// the log likelihood and its first and second derivatives with respect to
// the branch length. matrix, d1Matrix (and d2Matrix unless None) must have
// been computed by UpdateTransitionMatrices / UpdateTransitionDerivatives.
func (s *Storage[T]) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	scale, err := s.edgeOperands(parentBuf, childBuf, matrix, cumScaleBuf)
	if err != nil {
		return 0, 0, 0, err
	}
	if s.in.m1, err = s.Matrix(d1Matrix); err != nil {
		return 0, 0, 0, err
	}
	p := len(s.Site)
	if cap(s.in.dd) < 2*p {
		s.in.dd = make([]float64, 2*p)
	}
	s.in.d1, s.in.m2, s.in.d2 = s.in.dd[:p], nil, nil
	if d2Matrix != None {
		if s.in.m2, err = s.Matrix(d2Matrix); err != nil {
			return 0, 0, 0, err
		}
		s.in.d2 = s.in.dd[p : 2*p]
	}
	start, on := s.Cfg.Trace.Begin()
	if err := s.integrate(IntegrateEdgeDerivatives, scale); err != nil {
		return 0, 0, 0, err
	}
	d1, d2 := kernels.WeightedSum(0, s.in.d1, s.PatWts), 0.0
	if s.in.d2 != nil {
		d2 = kernels.WeightedSum(0, s.in.d2, s.PatWts)
	}
	return s.lnL(trace.KindEdge, start, on), d1, d2, nil
}
