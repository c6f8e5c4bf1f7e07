package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The Columnar encoding cache across the serving surface: a warm plan's
// second execution hits the cache, an /admin/ingest database swap
// invalidates it (fresh misses, answers from the new snapshot) without
// resetting the counters, and both counters are exported on
// /admin/metrics.
func TestColumnarCacheAcrossIngest(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const triangle = `r1(X, Y), r2(Y, Z), r3(Z, X)`
	_, m0 := s.LiveDB().EncodedCounts()
	if code, _, _ := post(t, ts.URL, QueryRequest{Query: triangle}); code != http.StatusOK {
		t.Fatalf("first query: status %d", code)
	}
	h1, m1 := s.LiveDB().EncodedCounts()
	if m1 == m0 {
		t.Fatal("cold execution encoded nothing (no cache misses)")
	}

	// Same query against the same snapshot: the warm plan re-executes and
	// every λ encoding is a hit, with no new misses.
	if code, _, _ := post(t, ts.URL, QueryRequest{Query: triangle}); code != http.StatusOK {
		t.Fatalf("second query: status %d", code)
	}
	h2, m2 := s.LiveDB().EncodedCounts()
	if h2 == h1 {
		t.Fatal("warm re-execution did not hit the encoding cache")
	}
	if m2 != m1 {
		t.Fatalf("warm re-execution re-encoded: misses %d → %d", m1, m2)
	}

	// Ingest swaps the database snapshot, whose relations start with no
	// encodings, so the next execution must re-encode (fresh misses); the
	// new snapshot counts on from its predecessor's totals.
	if code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: "r1(q1, q2). r2(q2, q3). r3(q3, q1)."}); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, raw)
	}
	if code, _, _ := post(t, ts.URL, QueryRequest{Query: triangle}); code != http.StatusOK {
		t.Fatalf("post-ingest query: status %d", code)
	}
	h3, m3 := s.LiveDB().EncodedCounts()
	if m3 <= m2 {
		t.Fatal("post-ingest execution served encodings of the dead snapshot")
	}
	if h3 < h2 {
		t.Fatalf("the ingest reset the counters: hits %d → %d", h2, h3)
	}

	// Both counters surface in the JSON snapshot and the Prometheus text.
	var met Metrics
	getJSON(t, ts.URL+"/admin/metrics.json", &met)
	if met.ColumnarCacheHits == 0 || met.ColumnarCacheMisses == 0 {
		t.Fatalf("metrics.json columnar counters = %d/%d, want both > 0", met.ColumnarCacheHits, met.ColumnarCacheMisses)
	}
	resp, err := http.Get(ts.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"hdserve_columnar_cache_hits_total", "hdserve_columnar_cache_misses_total"} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/admin/metrics missing %s", series)
		}
	}
}

// Acyclic plans execute over cached encodings too, so the row-count pin
// must cover them: a warm acyclic plan answers from the cache, and
// after /admin/ingest adds a tuple that creates a new answer the same
// (still cached) plan must return it — from fresh encodings, not from the
// dead snapshot's.
func TestAcyclicPlanSeesIngest(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const path = `ans(X, Z) :- r1(X, Y), r2(Y, Z).`
	query := func() *QueryResponse {
		t.Helper()
		code, resp, _ := post(t, ts.URL, QueryRequest{Query: path, MaxRows: 1 << 20})
		if code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
		if !strings.Contains(resp.Plan, "acyclic") {
			t.Fatalf("plan %q, want the acyclic strategy", resp.Plan)
		}
		return resp
	}
	has := func(resp *QueryResponse, x, z string) bool {
		for _, row := range resp.Rows {
			if row[0] == x && row[1] == z {
				return true
			}
		}
		return false
	}

	before := query()
	h1, m1 := s.LiveDB().EncodedCounts()
	if warm := query(); warm.RowCount != before.RowCount {
		t.Fatalf("warm re-execution: %d answers, cold had %d", warm.RowCount, before.RowCount)
	}
	if h2, m2 := s.LiveDB().EncodedCounts(); h2 == h1 || m2 != m1 {
		t.Fatalf("warm acyclic re-execution: hits %d → %d, misses %d → %d; want hits only", h1, h2, m1, m2)
	}
	if has(before, "fresh_x", "fresh_z") {
		t.Fatal("the new answer exists before the ingest")
	}

	if code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: "r1(fresh_x, fresh_y). r2(fresh_y, fresh_z)."}); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, raw)
	}
	after := query()
	if after.RowCount != before.RowCount+1 || !has(after, "fresh_x", "fresh_z") {
		t.Fatalf("post-ingest: %d answers (had %d), new answer present: %v",
			after.RowCount, before.RowCount, has(after, "fresh_x", "fresh_z"))
	}
}
