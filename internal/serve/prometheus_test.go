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

// promLine matches one Prometheus exposition sample: metric name, optional
// {label="value",...} set, one value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? \S+$`)

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

	// Every non-comment, non-blank line must parse as a sample.
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}

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

	// Histogram buckets must be cumulative: non-decreasing, ending at the
	// series count.
	bucketRe := regexp.MustCompile(`hdserve_stage_duration_seconds_bucket\{stage="execute",le="[^"]+"\} (\d+)`)
	prev := -1
	matches := bucketRe.FindAllStringSubmatch(body, -1)
	if len(matches) == 0 {
		t.Fatal("no execute-stage buckets exported")
	}
	for _, m := range matches {
		n, _ := strconv.Atoi(m[1])
		if n < prev {
			t.Fatalf("buckets not cumulative: %d after %d", n, prev)
		}
		prev = n
	}
	if prev != 1 {
		t.Fatalf("+Inf bucket = %d, want the series count 1", prev)
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
