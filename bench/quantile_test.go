package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose: 200..1
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

// A percentile is reported only with at least ten samples beyond it: 200
// samples carry a p95 (10 beyond) but not a p99 (2 beyond).
func TestSamplesBeyondSelectsPercentile(t *testing.T) {
	if got := samplesBeyond(200, 95); got != 10 {
		t.Errorf("samplesBeyond(200, 95) = %d, want 10", got)
	}
	if got := samplesBeyond(199, 95); got != 9 {
		t.Errorf("samplesBeyond(199, 95) = %d, want 9", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {20000, 99.9}} {
		if got := highestSupported(c.n, 10, 50, 90, 95, 99, 99.9); got != c.want {
			t.Errorf("highestSupported(n=%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// acceptance driver uses; the expected values below were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1.2, 1.1, 1.4, 1.3, 1.25}, 1.15, 1.35},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want 1 ((8.25-2.75)/5.5)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
