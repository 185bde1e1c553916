// Package mle provides maximum-likelihood optimization utilities: Brent's
// derivative-free 1-D maximizer and a coordinate-ascent branch-length
// optimizer, the style of optimization GARLI-class maximum-likelihood
// programs layer on top of the likelihood library (§III-A).
package mle

import (
	"errors"
	"math"

	"gobeagle/internal/tree"
)

// BrentMaximize locates the maximum of f on [lo, hi] by Brent's method
// (golden-section with parabolic interpolation), returning the maximizing x
// and f(x). tol is the absolute x tolerance.
func BrentMaximize(f func(float64) float64, lo, hi, tol float64) (float64, float64, error) {
	if lo >= hi {
		return 0, 0, errors.New("mle: invalid bracket")
	}
	if tol <= 0 {
		tol = 1e-8
	}
	neg := func(x float64) float64 { return -f(x) }
	x, fx := brentMinimize(neg, lo, hi, tol)
	return x, -fx, nil
}

// brentMinimize is the classical Brent minimizer on [a, b].
func brentMinimize(f func(float64) float64, a, b, tol float64) (float64, float64) {
	const golden = 0.3819660112501051
	const eps = 1e-12
	x := a + golden*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for iter := 0; iter < 200; iter++ {
		m := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + eps
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Parabolic fit through x, v, w.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, m-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = golden * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u < x {
				b = x
			} else {
				a = x
			}
			v, fv = w, fw
			w, fw = x, fx
			x, fx = u, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, fx
}

// OptimizeBranchLengths maximizes the tree log likelihood over branch
// lengths by repeated single-branch Brent optimization (coordinate ascent),
// until a full sweep improves the log likelihood by less than tol or
// maxSweeps is reached. It returns the final log likelihood and the number
// of sweeps performed. eval must return the log likelihood of the tree in
// its current state.
func OptimizeBranchLengths(t *tree.Tree, eval func(*tree.Tree) (float64, error),
	minLen, maxLen, tol float64, maxSweeps int) (float64, int, error) {
	if minLen <= 0 || maxLen <= minLen {
		return 0, 0, errors.New("mle: invalid branch length bounds")
	}
	if maxSweeps <= 0 {
		maxSweeps = 20
	}
	if tol <= 0 {
		tol = 1e-6
	}
	current, err := eval(t)
	if err != nil {
		return 0, 0, err
	}
	sweeps := 0
	for ; sweeps < maxSweeps; sweeps++ {
		before := current
		for _, n := range t.Nodes() {
			if n == t.Root {
				continue
			}
			node := n
			var evalErr error
			obj := func(x float64) float64 {
				node.Length = x
				lnL, err := eval(t)
				if err != nil {
					evalErr = err
					return math.Inf(-1)
				}
				return lnL
			}
			best, bestLnL, err := BrentMaximize(obj, minLen, maxLen, 1e-7)
			if err != nil {
				return 0, sweeps, err
			}
			if evalErr != nil {
				return 0, sweeps, evalErr
			}
			node.Length = best
			current = bestLnL
		}
		if current-before < tol {
			sweeps++
			break
		}
	}
	return current, sweeps, nil
}
