package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample such that at least p percent of the samples are ≤ it. It
// never interpolates, so a reported tail is always a latency that happened.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// median is the middle value (mean of the middle two for an even count); a
// metric's reported value is the median of its per-round values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), because that is
// what the acceptance driver computes spreads with. Fewer than two samples
// have no spread: both quartiles equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrRatio is the inter-quartile distance as a share of the median — the
// spread figure the bounds in BENCHMARK.json are judged against.
func iqrRatio(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// evalFlops is the paper's effective operation count (§V-A) of ops
// partial-likelihoods operations: 4S+1 per destination partials entry (two
// S-long dot products, a multiply and an add each, plus the product), over
// patterns × categories × states entries per operation.
func evalFlops(ops, patterns, categories, states int) float64 {
	entries := float64(patterns) * float64(categories) * float64(states)
	return float64(ops) * entries * float64(4*states+1)
}

// relErr is |got-want| relative to |want| (absolute when want is 0).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if want != 0 {
		d /= math.Abs(want)
	}
	return d
}
