package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSampleLine matches one exposition sample: name, optional label set,
// value.
var promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_]+="[^"]*"(?:,[a-zA-Z_]+="[^"]*")*\})? (\S+)$`)

// promExemplar matches the OpenMetrics exemplar annotation a histogram
// bucket may carry after its value: `{trace_id="…"} value timestamp`.
var promExemplar = regexp.MustCompile(`^\{trace_id="[0-9a-f]{32}"\} (\S+) (\S+)$`)

// promLe strips the le label, leaving a bucket's series identity.
var promLe = regexp.MustCompile(`,?le="[^"]*"`)

// requiredSeries are the samples every scrape exposes, whatever the load:
// the request counters, the refresh and sampling counters, and the
// per-stage latency histograms (matched on name and labels).
var requiredSeries = []string{
	"hdserve_requests_total",
	"hdserve_executions_total",
	"hdserve_plan_cache_hits_total",
	"hdserve_plan_cache_misses_total",
	"hdserve_columnar_cache_hits_total",
	"hdserve_columnar_cache_misses_total",
	"hdserve_stats_refresh_total",
	"hdserve_trace_sampled_total",
	"hdserve_trace_sample_every",
	"hdserve_spans_exported_total",
	`hdserve_request_duration_seconds_count{route="/query"}`,
	`hdserve_stage_duration_seconds_count{stage="compile"}`,
	`hdserve_stage_duration_seconds_count{stage="execute"}`,
	`hdserve_stage_duration_seconds_bucket{stage="execute",le="+Inf"}`,
}

// checkExposition validates a Prometheus text exposition and returns how
// many exemplars it carries: every sample parses and its family has a
// # TYPE header, exemplars sit only on _bucket lines with a 32-hex trace_id
// and a numeric value and timestamp, every histogram series is cumulative,
// and every requiredSeries sample is present.
func checkExposition(t *testing.T, body string) (exemplars int) {
	t.Helper()
	typed := map[string]bool{}        // families with a # TYPE header
	lastBucket := map[string]uint64{} // histogram series → last cumulative count
	samples := map[string]bool{}      // name{labels} → seen
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typed[f[2]] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, ex, hasExemplar := strings.Cut(line, " # ")
		m := promSampleLine.FindStringSubmatch(sample)
		if m == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		name, labels, value := m[1], m[2], m[3]
		if hasExemplar {
			em := promExemplar.FindStringSubmatch(ex)
			if em == nil || !strings.HasSuffix(name, "_bucket") {
				t.Fatalf("malformed or misplaced exemplar: %q", line)
			}
			for _, v := range em[1:] {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					t.Fatalf("non-numeric exemplar field %q: %q", v, line)
				}
			}
			exemplars++
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && typed[f] {
				family = f
			}
		}
		if !typed[family] {
			t.Fatalf("sample %q has no # TYPE header", name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("sample %q has non-numeric value %q", name, value)
		}
		samples[name+labels] = true
		if strings.HasSuffix(name, "_bucket") {
			series := name + promLe.ReplaceAllString(labels, "")
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket with non-integer count: %q", line)
			}
			if prev, seen := lastBucket[series]; seen && v < prev {
				t.Fatalf("non-cumulative buckets in %s: %d after %d", series, v, prev)
			}
			lastBucket[series] = v
		}
	}
	for _, want := range requiredSeries {
		if !samples[want] {
			t.Fatalf("exposition is missing required series %s", want)
		}
	}
	return exemplars
}

func TestServePrometheusExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := post(t, ts.URL, QueryRequest{Query: `ans(A, C) :- r1(A, B), r2(B, C).`}); code != http.StatusOK {
		t.Fatal("seed query failed")
	}
	resp, err := http.Get(ts.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	checkExposition(t, body)

	// The counters and the per-stage series the dashboards key on.
	for _, want := range []string{
		"hdserve_requests_total 1",
		"hdserve_executions_total 1",
		"hdserve_plan_cache_misses_total 1",
		"hdserve_slow_queries_total 0",
		`hdserve_request_duration_seconds_count{route="/query"} 1`,
		`hdserve_stage_duration_seconds_count{stage="compile"} 1`,
		`hdserve_stage_duration_seconds_count{stage="execute"} 1`,
		`hdserve_stage_duration_seconds_bucket{stage="execute",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition is missing %q:\n%s", want, body)
		}
	}
}

func TestServeQueryTraceOptIn(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := `ans(X, Z) :- r1(X, Y), r2(Y, Z), r3(Z, X).`
	code, plain, _ := post(t, ts.URL, QueryRequest{Query: q})
	if code != http.StatusOK {
		t.Fatalf("untraced query: status %d", code)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced request carries a trace: %+v", plain.Trace)
	}

	code, traced, _ := post(t, ts.URL, QueryRequest{Query: q, Trace: true})
	if code != http.StatusOK {
		t.Fatalf("traced query: status %d", code)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("trace requested but response carries none")
	}
	names := map[string]bool{}
	var nodeSpans int
	for _, sp := range traced.Trace {
		names[sp.Name] = true
		if sp.Name == "exec/node" {
			nodeSpans++
			if sp.Rows < 0 {
				t.Fatalf("node span without actual rows: %+v", sp)
			}
			if sp.EstRows > 0 && sp.QError < 1 {
				t.Fatalf("estimated node span must report q-error ≥ 1: %+v", sp)
			}
		}
	}
	if !names["exec"] || nodeSpans == 0 {
		t.Fatalf("trace misses exec/node spans: %+v", traced.Trace)
	}
	// The compile was a cache hit (same canonical query), so compile spans
	// are optional — but the answers must be identical with tracing on.
	if traced.RowCount != plain.RowCount {
		t.Fatalf("tracing changed the answer: %d vs %d rows", traced.RowCount, plain.RowCount)
	}
}

func TestServeSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{SlowQuery: time.Nanosecond, SlowQueryLog: &buf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, out, _ := post(t, ts.URL, QueryRequest{Query: `ans(A, C) :- r1(A, B), r2(B, C).`, MaxRows: 1})
	if code != http.StatusOK {
		t.Fatal("query failed")
	}
	if out.RowCount < 2 || len(out.Rows) != 1 {
		t.Fatalf("want a reply truncated to 1 of several rows, got %d of %d", len(out.Rows), out.RowCount)
	}
	if m := s.Metrics(); m.SlowQueries != 1 {
		t.Fatalf("slow queries = %d, want 1", m.SlowQueries)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d slow-query lines, want 1: %q", len(lines), buf.String())
	}
	var rec slowQueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Query == "" || rec.Time == "" || rec.Plan == "" {
		t.Fatalf("slow-query record incomplete: %+v", rec)
	}
	if len(rec.Trace) == 0 {
		t.Fatalf("slow-query record carries no trace: %+v", rec)
	}
	// rows is the answer count, not the rows the reply rendered, and so is
	// the walk's span.
	if rec.Rows != out.RowCount {
		t.Fatalf("slow-query rows = %d, the reply's row_count %d", rec.Rows, out.RowCount)
	}
	for _, sp := range rec.Trace {
		if sp.Name == "exec/enumerate" && sp.Rows != int64(out.RowCount) {
			t.Fatalf("exec/enumerate rows = %d, want the count %d", sp.Rows, out.RowCount)
		}
	}

	// An executionless request (parse error) must not log.
	post(t, ts.URL, QueryRequest{Query: `broken(`})
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("parse failure reached the slow-query log: %d lines", got)
	}
}

func TestServePprofExposed(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}
