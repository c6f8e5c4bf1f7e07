package serve

import (
	"math"
	"sync"
	"time"
)

// histBuckets is the number of log₂ microsecond buckets a Histogram keeps:
// bucket 0 counts observations in [0, 2) µs and bucket i ≥ 1 counts
// [2^i, 2^(i+1)) µs, so 40 buckets span sub-microsecond to ~12-day
// latencies — every request a daemon can see.
const histBuckets = 40

// A Histogram is a fixed-bucket log₂ latency histogram: cheap to observe
// (one mutex, one increment), cheap to export, and accurate to a factor of
// two at the tail — the right trade for an always-on admin endpoint. The
// zero value is ready to use; safe for concurrent use.
//
// Buckets may additionally carry an exemplar: the trace ID of the most
// recent traced observation that landed in them (ObserveExemplar), which is
// what lets the metrics endpoint answer "show me a trace from the p99
// bucket" — find the bucket the quantile falls in, follow its exemplar.
type Histogram struct {
	mu        sync.Mutex
	counts    [histBuckets]uint64
	exemplars [histBuckets]bucketExemplar
	count     uint64
	sum       uint64 // total microseconds
	max       uint64 // largest single observation, microseconds
}

// bucketExemplar is the most recent traced observation of one bucket.
type bucketExemplar struct {
	traceID string
	micros  uint64
	unixSec float64 // observation wall-clock time, unix seconds
}

// bucketFor returns the log₂ bucket index of a microsecond value.
func bucketFor(us uint64) int {
	b := 0
	for v := us; v > 1 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveExemplar(d, "") }

// ObserveExemplar records one latency sample and, when traceID is
// non-empty, makes it the exemplar of the bucket the sample lands in
// (replacing any earlier exemplar — the freshest trace is the one an
// operator can still correlate).
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	us := uint64(0)
	if d > 0 {
		us = uint64(d.Microseconds())
	}
	b := bucketFor(us)
	h.mu.Lock()
	h.counts[b]++
	h.count++
	h.sum += us
	if us > h.max {
		h.max = us
	}
	if traceID != "" {
		h.exemplars[b] = bucketExemplar{traceID: traceID, micros: us, unixSec: float64(time.Now().UnixNano()) / 1e9}
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time export of a Histogram: the moment
// statistics plus bucket-estimated latency percentiles, all in microseconds.
// Percentile estimates interpolate linearly within their log₂ bucket (the
// histogram_quantile convention), so their error is bounded by the bucket
// width, and the per-bucket counts themselves are exported for consumers
// that want cumulative (Prometheus-style) buckets.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumMicros  uint64   `json:"sum_us"`
	MeanMicros float64  `json:"mean_us"`
	MaxMicros  uint64   `json:"max_us"`
	P50Micros  float64  `json:"p50_us"`
	P95Micros  float64  `json:"p95_us"`
	P99Micros  float64  `json:"p99_us"`
	Buckets    []uint64 `json:"buckets,omitempty"`
	// Exemplars holds, per occupied bucket that saw a traced observation,
	// the trace ID of its freshest traced sample — the bridge from a latency
	// bucket back to a full execution trace.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// A BucketExemplar links one histogram bucket to the trace of its most
// recent traced observation.
type BucketExemplar struct {
	// Bucket is the log₂ bucket index the observation landed in (bucket b
	// spans [2^b, 2^(b+1)) µs).
	Bucket int `json:"bucket"`
	// TraceID is the 32-hex-digit trace identity (Trace.TraceID), usable to
	// correlate with exported OTel spans.
	TraceID string `json:"trace_id"`
	// Micros is the exemplar observation's latency.
	Micros uint64 `json:"us"`
	// UnixSeconds is the observation's wall-clock time.
	UnixSeconds float64 `json:"unix_s"`
}

// Snapshot returns a consistent point-in-time export of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, SumMicros: h.sum, MaxMicros: h.max}
	if h.count == 0 {
		return s
	}
	s.Buckets = make([]uint64, histBuckets)
	copy(s.Buckets, h.counts[:])
	for b, e := range h.exemplars {
		if e.traceID != "" {
			s.Exemplars = append(s.Exemplars, BucketExemplar{Bucket: b, TraceID: e.traceID, Micros: e.micros, UnixSeconds: e.unixSec})
		}
	}
	s.MeanMicros = float64(h.sum) / float64(h.count)
	s.P50Micros = h.quantileLocked(0.50)
	s.P95Micros = h.quantileLocked(0.95)
	s.P99Micros = h.quantileLocked(0.99)
	return s
}

// quantileLocked estimates the q-quantile from the buckets by linear
// interpolation within the bucket holding the q·count-th observation:
// assuming the bucket's mass is uniform over [lo, hi), the estimate is
// lo + (hi−lo)·(rank of the target within the bucket)/(bucket count),
// clamped to the largest observation so a lone tail sample cannot report a
// quantile beyond anything actually seen. Callers hold h.mu and have
// checked count > 0.
func (h *Histogram) quantileLocked(q float64) float64 {
	target := math.Ceil(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo := float64(uint64(1) << b) // bucket lower edge, 2^b µs
			if b == 0 {
				lo = 0
			}
			hi := float64(uint64(1) << (b + 1))
			v := lo + (hi-lo)*(target-cum)/float64(c)
			if capped := float64(h.max); v > capped {
				v = capped
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}
