package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree"
	"hypertree/internal/gen"
	"hypertree/internal/obs"
)

// postJSON fires one POST with a JSON body and returns status + raw body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestIngestAndRefreshSwapSnapshots(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	origDB := s.LiveDB()
	origFP := s.LiveStats().Fingerprint()
	origRows := origDB.Relation("r1").Rows()

	// Ingest new facts: the database pointer must swap, statistics must NOT.
	code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: "r1(zz1, zz2). r1(zz2, zz3)."})
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.FactsAdded != 2 {
		t.Fatalf("FactsAdded = %d, want 2", ing.FactsAdded)
	}
	if s.LiveDB() == origDB {
		t.Fatal("ingest did not swap the database pointer")
	}
	if s.LiveDB().Relation("r1").Rows() != origRows+2 || origDB.Relation("r1").Rows() != origRows {
		t.Fatal("ingest mutated the wrong snapshot")
	}
	if s.LiveStats().Fingerprint() != origFP || ing.StatsFingerprint != origFP {
		t.Fatal("ingest must leave statistics stale (that is the refresher's job)")
	}

	// Queries still work against the swapped database.
	code, out, _ := post(t, ts.URL, QueryRequest{Query: `ans(A, B) :- r1(A, B).`})
	if code != http.StatusOK || out.RowCount != origRows+2 {
		t.Fatalf("post-ingest query: status %d rows %d, want %d", code, out.RowCount, origRows+2)
	}

	// Forced refresh: fingerprint moves, counter increments.
	code, raw = postJSON(t, ts.URL+"/admin/refresh", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("refresh: status %d: %s", code, raw)
	}
	var ref RefreshResponse
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.StatsFingerprint == origFP {
		t.Fatal("refresh did not change the statistics fingerprint after ingest")
	}
	if ref.Refreshes != 1 || s.Refresher().Refreshes() != 1 {
		t.Fatalf("refreshes = %d, want 1", ref.Refreshes)
	}
	if s.LiveStats().Fingerprint() != ref.StatsFingerprint {
		t.Fatal("refresh response fingerprint does not match the installed snapshot")
	}

	var m Metrics
	getJSON(t, ts.URL+"/admin/metrics.json", &m)
	if m.Ingests != 1 || m.StatsRefreshes != 1 || m.StatsFingerprint != ref.StatsFingerprint {
		t.Fatalf("metrics ingests=%d refreshes=%d fp=%q, want 1/1/%q", m.Ingests, m.StatsRefreshes, m.StatsFingerprint, ref.StatsFingerprint)
	}
}

func TestIngestRejectsBadFacts(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	origDB := s.LiveDB()
	// garbage, a relation named by a stray token, an empty constant
	for _, facts := range []string{"not a fact", "r1(a, b) . . s(b)", "r1(a,)."} {
		code, _ := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: facts})
		if code != http.StatusBadRequest {
			t.Fatalf("bad facts %q: status %d, want 400", facts, code)
		}
		if s.LiveDB() != origDB {
			t.Fatalf("failed ingest of %q swapped the database", facts)
		}
	}
}

func TestTraceSamplingFeedsExemplarsAndQErrors(t *testing.T) {
	hypertree.ResetQErrorReport()
	s := newTestServer(t, Config{}, WithTraceSampling(2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Sequential cyclic queries: each is a leader execution, so the sampler
	// sees every one and traces exactly every 2nd.
	for i := 0; i < 6; i++ {
		code, _, errResp := post(t, ts.URL, QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`})
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d (%v)", i, code, errResp)
		}
	}
	m := s.Metrics()
	if m.TraceSampleEvery != 2 || m.TraceSampled != 3 {
		t.Fatalf("sampled %d at 1-in-%d, want 3 at 1-in-2", m.TraceSampled, m.TraceSampleEvery)
	}
	// Sampled traces record q-errors under the live fingerprint.
	found := false
	for _, e := range hypertree.QErrorReport() {
		if e.Fingerprint == s.LiveStats().Fingerprint() && e.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("sampled tracing recorded no q-error feedback")
	}
	// And the stage histograms carry exemplars, exposed both in JSON...
	stages := m.Stages["execute"]
	if len(stages.Exemplars) == 0 {
		t.Fatalf("no exemplars on the execute stage histogram: %+v", stages)
	}
	for _, e := range stages.Exemplars {
		if len(e.TraceID) != 32 {
			t.Fatalf("exemplar trace ID %q is not 32 hex digits", e.TraceID)
		}
	}
	// ...and as OpenMetrics annotations on the Prometheus exposition.
	resp, err := http.Get(ts.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if checkExposition(t, string(text)) == 0 {
		t.Fatal("Prometheus exposition carries no exemplar annotation")
	}
	if !strings.Contains(string(text), "hdserve_trace_sampled_total 3") {
		t.Fatalf("missing hdserve_trace_sampled_total series:\n%s", text)
	}
	if !strings.Contains(string(text), "hdserve_stats_refresh_total 0") {
		t.Fatal("missing hdserve_stats_refresh_total series")
	}
}

func TestSpanExporterReceivesServedTraces(t *testing.T) {
	var buf bytes.Buffer
	exp := hypertree.NewOTLPWriterExporter(&buf, "hdserve-test")
	s := newTestServer(t, Config{}, WithSpanExporter(exp))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, out, _ := post(t, ts.URL, QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`, Trace: true})
	if code != http.StatusOK || len(out.Trace) == 0 {
		t.Fatalf("traced query: status %d, %d spans", code, len(out.Trace))
	}
	if exp.Exported() != 1 {
		t.Fatalf("exporter shipped %d traces, want 1", exp.Exported())
	}
	line := strings.TrimSpace(buf.String())
	if !json.Valid([]byte(line)) || !strings.Contains(line, `"resourceSpans"`) {
		t.Fatalf("exported payload is not OTLP/JSON: %q", line)
	}
	m := s.Metrics()
	if m.SpansExported != 1 || m.SpanExportFailures != 0 {
		t.Fatalf("metrics spans_exported=%d failures=%d, want 1/0", m.SpansExported, m.SpanExportFailures)
	}
}

func TestQErrorEndpoint(t *testing.T) {
	hypertree.ResetQErrorReport()
	s := newTestServer(t, Config{SlowQuery: time.Nanosecond, SlowQueryLog: io.Discard})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if code, _, _ := post(t, ts.URL, QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`}); code != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	var status QErrorStatus
	getJSON(t, ts.URL+"/admin/qerror", &status)
	if status.LiveFingerprint != s.LiveStats().Fingerprint() {
		t.Fatalf("live fingerprint %q != %q", status.LiveFingerprint, s.LiveStats().Fingerprint())
	}
	if len(status.Entries) == 0 {
		t.Fatal("no q-error entries after traced cyclic executions")
	}
	for _, e := range status.Entries {
		if e.Fingerprint == status.LiveFingerprint && !e.Live {
			t.Fatalf("entry %+v not flagged live", e)
		}
		if e.Count <= 0 || e.MaxQ < 1 {
			t.Fatalf("inconsistent entry %+v", e)
		}
	}
}

// TestQErrorFeedbackRefreshesStaleStatistics closes the feedback loop end
// to end: a skewed ingest into r4 makes the live statistics stale, sampled
// executions of the 4-cycle record inflated q-errors, the trigger refreshes
// the snapshot without a restart, and the re-planned query's q-error falls
// back under the threshold. The threshold is not a constant: it is the
// geometric mean of two in-process readings of the same plan's worst node
// q-error, on the baseline database and on the skewed one.
func TestQErrorFeedbackRefreshesStaleStatistics(t *testing.T) {
	const (
		cycle4 = `r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X1)`
		window = 4
		// skewFacts is the smallest multiple of 1 000 random r4 tuples that
		// lifts the stale reading past ten times the baseline.
		skewFacts = 3000
	)
	db := gen.ServingDatabase(rand.New(rand.NewSource(7)), 100, 100)
	rng := rand.New(rand.NewSource(1))
	var facts strings.Builder
	for i := 0; i < skewFacts; i++ {
		fmt.Fprintf(&facts, "r4(d%d, d%d).\n", rng.Intn(100), rng.Intn(100))
	}
	skewed := db.Clone()
	if err := skewed.ParseFacts(facts.String()); err != nil {
		t.Fatal(err)
	}

	// The plan the server compiles at boot, read on both databases.
	plan, err := hypertree.Compile(hypertree.MustParseQuery(cycle4),
		hypertree.WithAutoStrategy(), hypertree.WithStepBudget(Config{}.withDefaults().StepBudget),
		hypertree.WithCostModel(hypertree.CollectStatsSampled(db, 0)))
	if err != nil {
		t.Fatal(err)
	}
	baseline, staleRead := worstNodeQError(t, plan, db), worstNodeQError(t, plan, skewed)
	if staleRead < 10*baseline {
		t.Fatalf("setup: the skew lifts the worst q-error %.1f → %.1f, want ≥ 10×", baseline, staleRead)
	}
	threshold := math.Sqrt(baseline * staleRead)

	hypertree.ResetQErrorReport()
	s := newTestServer(t, Config{DB: db, QErrorThreshold: threshold, QErrorWindow: window, RefreshCooldown: 100 * time.Millisecond},
		WithTraceSampling(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	query := func() {
		t.Helper()
		if code, _, errResp := post(t, ts.URL, QueryRequest{Query: cycle4}); code != http.StatusOK {
			t.Fatalf("cycle4: status %d (%v)", code, errResp)
		}
	}
	for range window {
		query()
	}
	staleFP := s.LiveStats().Fingerprint()
	if code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: facts.String()}); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, raw)
	}
	for deadline := time.Now().Add(20 * time.Second); s.Refresher().Triggered() == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no q-error-triggered refresh within 20s (threshold %.2f)", threshold)
		}
		query()
	}
	freshFP := s.LiveStats().Fingerprint()
	if freshFP == staleFP {
		t.Fatal("the triggered refresh left the statistics fingerprint where it was")
	}
	for range window {
		query()
	}
	stale, fresh := worstMedianUnder(staleFP, window), worstMedianUnder(freshFP, window)
	t.Logf("threshold %.2f = √(baseline %.2f × stale reading %.2f); served medians: stale %.2f, fresh %.2f",
		threshold, baseline, staleRead, stale, fresh)
	if !(fresh >= 1 && fresh < threshold && threshold < stale) {
		t.Fatalf("want fresh median %.2f < threshold %.2f < stale median %.2f", fresh, threshold, stale)
	}
}

// worstNodeQError executes plan once on db the way the server does — a
// traced cursor, counted — and returns its worst node q-error.
func worstNodeQError(t *testing.T, plan *hypertree.Plan, db *hypertree.Database) float64 {
	t.Helper()
	tr := hypertree.NewTrace()
	a, err := plan.Answers(hypertree.ContextWithTrace(context.Background(), tr), db)
	if err != nil {
		t.Fatal(err)
	}
	a.Count()
	a.Close()
	worst := 0.0
	for _, sp := range tr.Spans() {
		if sp.Name == obs.SpanNode && sp.EstRows > 0 && sp.Rows >= 0 {
			worst = max(worst, hypertree.QError(sp.EstRows, sp.Rows))
		}
	}
	return worst
}

// worstMedianUnder returns the largest median q-error over the last window
// executions of any node recorded under fingerprint.
func worstMedianUnder(fingerprint string, window int) float64 {
	worst := 0.0
	for _, e := range hypertree.QErrorReport() {
		if e.Fingerprint == fingerprint {
			worst = max(worst, e.MedianRecent(window))
		}
	}
	return worst
}

// TestConcurrentSnapshotSwapStress is the -race stress for the tentpole's
// core claim: queries keep answering — identically — while ingests swap the
// database and the refresher swaps statistics snapshots underneath them.
// The churned relation (aux) is not referenced by any query, so every
// answer must equal the pre-churn baseline even as the statistics
// fingerprint moves.
func TestConcurrentSnapshotSwapStress(t *testing.T) {
	db := gen.ServingDatabase(rand.New(rand.NewSource(11)), 120, 40)
	if err := db.AddFact("aux", "seed1", "seed2"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{DB: db})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := []string{
		`ans(A, C) :- r1(A, B), r2(B, C).`,
		`r1(X, Y), r2(Y, Z), r3(Z, X)`,
		`ans(X) :- r1(X, Y), r2(Y, Z), r3(Z, X).`,
	}
	baselineRows := make([]int, len(queries))
	baselineBool := make([]*bool, len(queries))
	for i, q := range queries {
		code, out, _ := post(t, ts.URL, QueryRequest{Query: q})
		if code != http.StatusOK {
			t.Fatalf("baseline %d: status %d", i, code)
		}
		baselineRows[i], baselineBool[i] = out.RowCount, out.Boolean
	}
	startFP := s.LiveStats().Fingerprint()

	var stop atomic.Bool
	var churn, wg sync.WaitGroup
	errc := make(chan error, 16)
	// Churner: ingest fresh aux facts and force a refresh, repeatedly.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			facts := fmt.Sprintf("aux(gen%d, gen%d).", i, i+1)
			if code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: facts}); code != http.StatusOK {
				errc <- fmt.Errorf("ingest: status %d: %s", code, raw)
				return
			}
			if code, raw := postJSON(t, ts.URL+"/admin/refresh", struct{}{}); code != http.StatusOK {
				errc <- fmt.Errorf("refresh: status %d: %s", code, raw)
				return
			}
		}
	}()
	// Queriers: answers must never move.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qi := (w + i) % len(queries)
				code, out, errResp := post(t, ts.URL, QueryRequest{Query: queries[qi]})
				if code != http.StatusOK {
					errc <- fmt.Errorf("worker %d query %d: status %d (%v)", w, i, code, errResp)
					return
				}
				if out.RowCount != baselineRows[qi] {
					errc <- fmt.Errorf("worker %d: rows %d != baseline %d under snapshot swap", w, out.RowCount, baselineRows[qi])
					return
				}
				if (out.Boolean == nil) != (baselineBool[qi] == nil) ||
					(out.Boolean != nil && *out.Boolean != *baselineBool[qi]) {
					errc <- fmt.Errorf("worker %d: boolean verdict changed under snapshot swap", w)
					return
				}
			}
		}(w)
	}
	// Queriers run a fixed amount of work; the churner keeps swapping
	// snapshots underneath them until they are done.
	wg.Wait()
	stop.Store(true)
	churn.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if fp := s.LiveStats().Fingerprint(); fp == startFP {
		t.Fatal("stress never actually moved the statistics fingerprint")
	}
	if s.Refresher().Refreshes() == 0 {
		t.Fatal("stress never refreshed")
	}
}

// TestPlanCacheKeysSeparateFingerprints pins the no-collision property the
// swap relies on: plans compiled for the same query under two statistics
// snapshots occupy distinct PlanCache slots, and each request concurrently
// gets back a plan priced against exactly the snapshot it asked for.
func TestPlanCacheKeysSeparateFingerprints(t *testing.T) {
	db := gen.ServingDatabase(rand.New(rand.NewSource(3)), 100, 30)
	st1 := hypertree.CollectStats(db)
	bigger := db.Clone()
	for i := 0; i < 50; i++ {
		if err := bigger.AddFact("r1", fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st2 := hypertree.CollectStats(bigger)
	if st1.Fingerprint() == st2.Fingerprint() {
		t.Fatal("test setup: snapshots share a fingerprint")
	}
	cache := hypertree.NewPlanCache(64)
	q, err := hypertree.ParseQuery(`r1(X, Y), r2(Y, Z), r3(Z, X)`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := st1
			if w%2 == 1 {
				want = st2
			}
			for i := 0; i < 25; i++ {
				plan, err := cache.Compile(t.Context(), q, hypertree.WithAutoStrategy(), hypertree.WithCostModel(want))
				if err != nil {
					errc <- err
					return
				}
				if got := plan.PlanStats(); got != want {
					errc <- fmt.Errorf("worker %d got a plan priced against fingerprint %q, want %q — cache-key collision across fingerprints",
						w, got.Fingerprint(), want.Fingerprint())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	cm := cache.Metrics()
	if cm.Len < 2 {
		t.Fatalf("cache holds %d plans, want one per fingerprint (2)", cm.Len)
	}
}
