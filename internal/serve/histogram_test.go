package serve

import (
	"math"
	"testing"
	"time"
)

// almost compares floats to within a hair of rounding noise — the quantile
// pins below are exact values of the interpolation formula, not tolerances.
func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestHistogramQuantileInterpolation pins p50/p95/p99 against the exact
// within-bucket linear interpolation values: 50 samples at 4µs land in the
// [4,8) bucket and 50 samples at 64µs in the [64,128) bucket, so p50 is the
// 50th observation — the top of the first bucket's mass, 4+(8−4)·50/50 = 8
// — and p95/p99 interpolate 45/50 and 49/50 of the way through [64,128)
// before the max clamp caps them at the largest observation actually seen.
func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(4 * time.Microsecond)
	}
	for i := 0; i < 50; i++ {
		h.Observe(64 * time.Microsecond)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.SumMicros != 50*4+50*64 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.SumMicros)
	}
	if !almost(snap.P50Micros, 8) {
		t.Fatalf("p50 = %v, want exactly 8 (top of the [4,8) bucket)", snap.P50Micros)
	}
	// p95: target 95, 45th of 50 in [64,128): 64 + 64·45/50 = 121.6 → clamped
	// to max 64. p99: 64 + 64·49/50 = 126.72 → clamped to 64.
	if !almost(snap.P95Micros, 64) || !almost(snap.P99Micros, 64) {
		t.Fatalf("p95=%v p99=%v, want both clamped to the 64µs max", snap.P95Micros, snap.P99Micros)
	}
	if snap.MaxMicros != 64 {
		t.Fatalf("max = %d", snap.MaxMicros)
	}
}

// TestHistogramQuantileInterpolationUnclamped pins the interpolation where
// the max clamp does not fire: 99 samples at 100µs in [64,128) plus one
// 200µs outlier raising the max. p50 = 64 + 64·50/99, p95 = 64 + 64·95/99,
// p99 = 64 + 64·99/99 = 128 — all strictly inside the data range.
func TestHistogramQuantileInterpolationUnclamped(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(200 * time.Microsecond)
	snap := h.Snapshot()
	if want := 64 + 64*50.0/99.0; !almost(snap.P50Micros, want) {
		t.Fatalf("p50 = %v, want %v", snap.P50Micros, want)
	}
	if want := 64 + 64*95.0/99.0; !almost(snap.P95Micros, want) {
		t.Fatalf("p95 = %v, want %v", snap.P95Micros, want)
	}
	if !almost(snap.P99Micros, 128) {
		t.Fatalf("p99 = %v, want 128 (exact bucket top)", snap.P99Micros)
	}
}

// TestHistogramBucketAssignment pins the log₂ bucket edges: 0 and 1µs land
// in bucket 0, 2µs opens bucket 1, and each power of two opens the next.
func TestHistogramBucketAssignment(t *testing.T) {
	var h Histogram
	for _, us := range []int{0, 1, 2, 3, 4, 7, 8} {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	snap := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // [0,2):{0,1} [2,4):{2,3} [4,8):{4,7} [8,16):{8}
	for b, w := range want {
		if snap.Buckets[b] != w {
			t.Fatalf("bucket %d = %d, want %d (buckets %v)", b, snap.Buckets[b], w, snap.Buckets[:8])
		}
	}
}
