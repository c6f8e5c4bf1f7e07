package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// promNamespace prefixes every metric the server exports, so its series
// cannot collide with other jobs scraped into the same Prometheus.
const promNamespace = "hdserve"

// writePromMetrics renders m in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers, counters and gauges as single
// samples, and each log₂ latency histogram as the standard cumulative
// _bucket/_sum/_count triple with `le` bounds in seconds. The output is
// scrapeable by a stock Prometheus; GET /admin/metrics serves it.
func writePromMetrics(w io.Writer, m Metrics) {
	promSample(w, "uptime_seconds", "Seconds since the server started.", "gauge", m.UptimeSeconds)
	promSample(w, "requests_total", "Query requests received.", "counter", float64(m.Requests))
	promSample(w, "errors_total", "Query requests answered non-2xx.", "counter", float64(m.Errors))
	promSample(w, "rejected_total", "Query requests shed by admission control (503).", "counter", float64(m.Rejected))
	promSample(w, "executions_total", "Plan executions actually run (flight leaders).", "counter", float64(m.Executions))
	promSample(w, "coalesced_total", "Query requests served by joining an in-flight twin.", "counter", float64(m.Coalesced))
	promSample(w, "slow_queries_total", "Executions at or over the slow-query threshold.", "counter", float64(m.SlowQueries))
	promSample(w, "inflight", "Worker slots currently executing a plan.", "gauge", float64(m.Inflight))
	promSample(w, "max_inflight", "Admission bound on concurrent plan executions.", "gauge", float64(m.MaxInflight))
	promSample(w, "ingest_total", "/admin/ingest requests that added tuples, each publishing a snapshot.", "counter", float64(m.Ingests))
	promSample(w, "trace_sampled_total", "Executions traced by the 1-in-N sampler.", "counter", float64(m.TraceSampled))
	promSample(w, "trace_sample_every", "Sampling period: one trace every N executions (0 when sampling is off).", "gauge", float64(m.TraceSampleEvery))
	promSample(w, "spans_exported_total", "Traces shipped through the OTel span exporter.", "counter", float64(m.SpansExported))
	promSample(w, "span_export_failures_total", "OTel span exports that errored.", "counter", float64(m.SpanExportFailures))
	fmt.Fprintf(w, "# HELP %s_stats_info Live statistics snapshot identity.\n# TYPE %s_stats_info gauge\n%s_stats_info{fingerprint=%q} 1\n",
		promNamespace, promNamespace, promNamespace, m.StatsFingerprint)
	promSample(w, "columnar_cache_hits_total", "Columnar encoding cache hits (leapfrog λ encodings reused).", "counter", float64(m.ColumnarCacheHits))
	promSample(w, "columnar_cache_misses_total", "Columnar encoding cache misses (λ relations encoded).", "counter", float64(m.ColumnarCacheMisses))
	promSample(w, "plan_cache_hits_total", "Plan cache hits.", "counter", float64(m.Cache.Hits))
	promSample(w, "plan_cache_misses_total", "Plan cache misses (fresh compiles).", "counter", float64(m.Cache.Misses))
	promSample(w, "plan_cache_evictions_total", "Plans evicted by LRU displacement.", "counter", float64(m.Cache.Evictions))
	promSample(w, "plan_cache_entries", "Live cached plans.", "gauge", float64(m.Cache.Len))
	promSample(w, "plan_cache_capacity", "Plan cache capacity.", "gauge", float64(m.CacheCapacity))
	promSample(w, "plan_cache_hit_rate", "Hits/(hits+misses), 0 before the first compile.", "gauge", m.CacheHitRate)
	promHistograms(w, "request_duration_seconds", "HTTP request latency by route.", "route", m.Routes)
	promHistograms(w, "stage_duration_seconds", "Query pipeline latency by stage (compile, execute).", "stage", m.Stages)
}

// promSample writes one single-sample metric family.
func promSample(w io.Writer, name, help, typ string, v float64) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n%s_%s %s\n",
		promNamespace, name, help, promNamespace, name, typ,
		promNamespace, name, promFloat(v))
}

// promHistograms writes one histogram family with a snapshot per label
// value: cumulative buckets up to the last occupied one, the mandatory
// +Inf bucket, and the _sum/_count pair. Label values are sorted so the
// exposition is deterministic (scrape diffing, tests). Buckets that saw a
// traced observation carry an OpenMetrics exemplar annotation —
// `# {trace_id="..."} value timestamp` — linking the bucket to the trace ID
// of its freshest traced sample, so a scrape of the p99 bucket names a
// concrete trace to go look at.
func promHistograms(w io.Writer, name, help, label string, hists map[string]HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s histogram\n",
		promNamespace, name, help, promNamespace, name)
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hists[k]
		last := -1
		for b, c := range h.Buckets {
			if c > 0 {
				last = b
			}
		}
		exemplars := map[int]BucketExemplar{}
		for _, e := range h.Exemplars {
			exemplars[e.Bucket] = e
		}
		cum := uint64(0)
		for b := 0; b <= last; b++ {
			cum += h.Buckets[b]
			// Bucket b holds [2^b, 2^(b+1)) µs, so its `le` bound is
			// 2^(b+1) µs expressed in seconds.
			le := float64(uint64(1)<<(b+1)) / 1e6
			fmt.Fprintf(w, "%s_%s_bucket{%s=%q,le=%q} %d",
				promNamespace, name, label, k, promFloat(le), cum)
			if e, ok := exemplars[b]; ok {
				fmt.Fprintf(w, " # {trace_id=%q} %s %s",
					e.TraceID, promFloat(float64(e.Micros)/1e6), promFloat(e.UnixSeconds))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s_%s_bucket{%s=%q,le=\"+Inf\"} %d\n", promNamespace, name, label, k, h.Count)
		fmt.Fprintf(w, "%s_%s_sum{%s=%q} %s\n", promNamespace, name, label, k, promFloat(float64(h.SumMicros)/1e6))
		fmt.Fprintf(w, "%s_%s_count{%s=%q} %d\n", promNamespace, name, label, k, h.Count)
	}
}

// promFloat formats a sample value the way Prometheus parses it back.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
