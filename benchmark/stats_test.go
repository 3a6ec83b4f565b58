package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 200 samples 1..200: p99 is the 198th, leaving two beyond it.
	var ramp []float64
	for i := 200; i >= 1; i-- {
		ramp = append(ramp, float64(i))
	}
	if got := percentile(ramp, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), which
// is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{5, 1, 9, 3, 7, 11, 2}, 2, 5, 9},
		{[]float64{1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98}, 0.9375, 1.0, 1.0625},
		{[]float64{3, 8}, 1.75, 5.5, 9.25},
		{[]float64{6}, 6, 6, 6},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{10, 20, 30, 40, 50}); !near(got, 1) {
		t.Errorf("spread = %v, want (45-15)/30 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {80, 50}, {100, 90}, {999, 90}, {1000, 99}, {4650, 99}, {10_000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
