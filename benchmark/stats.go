package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
// An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does —
// the acceptance driver computes spreads with that function, so the
// benchmark's own -repeat and -compare tables must agree with it. One
// sample is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailPercentile names the highest percentile of an n-sample timing
// that still has at least ten samples beyond it (the choosing-metrics
// rule), from the ladder 50 / 90 / 99 / 99.9 / 99.99.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, step := range []struct {
		p      float64
		beyond int // one sample in this many lies beyond p
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10_000}} {
		if n >= 10*step.beyond {
			best = step.p
		}
	}
	return best
}
