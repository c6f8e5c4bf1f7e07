package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest value with at least p% of the samples at or below it. 0 on an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the 50th percentile by interpolation (the mean of the two
// middle values of an even sample), the reading the agreement mode shares
// with Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile position: the tail a percentile needs behind it to mean anything.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// highestSupported returns the highest of the candidate percentiles (given
// ascending) that still has at least minBeyond samples beyond it in a sample
// of size n, or 0 when none has.
func highestSupported(n, minBeyond int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) computes
// them, which is what the acceptance driver uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// fifths renders the median of each fifth of xs, in order: a drift or a
// stall inside the phase shows here.
func fifths(xs []float64) string {
	var b strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, "%.4g ", median(xs[i*len(xs)/5:(i+1)*len(xs)/5]))
	}
	return strings.TrimSpace(b.String())
}
