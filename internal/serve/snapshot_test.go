package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// ingest posts facts to /admin/ingest and decodes the reply.
func ingest(t *testing.T, url, facts string) IngestResponse {
	t.Helper()
	code, raw := postJSON(t, url+"/admin/ingest", IngestRequest{Facts: facts})
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	return ing
}

// An ingest that adds tuples publishes the grown database together with
// statistics that count the new rows. One that moves no grid value keeps
// the fingerprint, so a warm query is a cache hit: its plan was compiled
// under the earlier snapshot, with the same prices, and its PlanStats()
// counts that snapshot's rows. One that crosses a grid cell moves the
// fingerprint, and the next compile is priced on the ingested rows.
func TestIngestAndRefreshSwapSnapshots(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	origDB, origStats := s.LiveDB(), s.LiveStats()
	r1 := origDB.Relation("r1")
	origRows := r1.Rows()
	q := hypertree.MustParseQuery(`ans(A, B) :- r1(A, B).`)
	compile := func() *hypertree.Plan {
		t.Helper()
		plan, err := s.Cache().Compile(t.Context(), q, s.compileOpts(s.LiveStats())...)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	warm := compile()

	// Inside one grid cell: one new pair of constants r1 already holds in
	// those columns, so only the row count moves, by one.
	have := map[[2]string]bool{}
	for i := 0; i < origRows; i++ {
		row := r1.Row(i)
		have[[2]string{origDB.ValueName(row[0]), origDB.ValueName(row[1])}] = true
	}
	var fact string
	for i := 0; fact == "" && i < origRows; i++ {
		for j := 0; fact == "" && j < origRows; j++ {
			a, b := origDB.ValueName(r1.Row(i)[0]), origDB.ValueName(r1.Row(j)[1])
			if !have[[2]string{a, b}] {
				fact = fmt.Sprintf("r1(%s, %s).", a, b)
			}
		}
	}
	ing := ingest(t, ts.URL, fact)
	if ing.FactsAdded != 1 {
		t.Fatalf("FactsAdded = %d, want 1", ing.FactsAdded)
	}
	if s.LiveDB() == origDB || s.LiveDB().Relation("r1").Rows() != origRows+1 || origDB.Relation("r1").Rows() != origRows {
		t.Fatal("ingest did not publish a grown copy of the database")
	}
	st := s.LiveStats()
	if st == origStats || st.Rows("r1") != origRows+1 || ing.StatsFingerprint != st.Fingerprint() {
		t.Fatalf("published statistics count %d r1 rows (fingerprint %s, reported %s), want %d",
			st.Rows("r1"), st.Fingerprint(), ing.StatsFingerprint, origRows+1)
	}
	if st.Fingerprint() != origStats.Fingerprint() {
		t.Fatalf("setup: one r1 row (%d → %d) moved the fingerprint", origRows, origRows+1)
	}
	hits := s.Cache().Metrics().Hits
	if hit := compile(); hit != warm || s.Cache().Metrics().Hits != hits+1 {
		t.Fatal("an ingest that moved no grid value re-compiled a warm query")
	} else if ps := hit.PlanStats(); ps.Fingerprint() != st.Fingerprint() || ps.PricedRows("r1") != st.PricedRows("r1") || ps.Rows("r1") != origRows {
		t.Fatalf("cached plan's statistics: fingerprint %s, %d r1 rows priced at %d; live %s priced at %d",
			ps.Fingerprint(), ps.Rows("r1"), ps.PricedRows("r1"), st.Fingerprint(), st.PricedRows("r1"))
	}

	// Across a grid cell: r1 grows by a third, so the fingerprint moves and
	// the next compile is priced with statistics that count the new rows.
	var grow strings.Builder
	for i := 0; i < origRows/3; i++ {
		fmt.Fprintf(&grow, "r1(zz%d, zz%d).\n", i, i+1)
	}
	ing = ingest(t, ts.URL, grow.String())
	st = s.LiveStats()
	if ing.FactsAdded != origRows/3 || ing.StatsFingerprint != st.Fingerprint() || st.Fingerprint() == origStats.Fingerprint() {
		t.Fatalf("growing ingest: %+v, live fingerprint %s", ing, st.Fingerprint())
	}
	plan := compile()
	if got, want := plan.PlanStats().Rows("r1"), s.LiveDB().Relation("r1").Rows(); plan == warm || got != want {
		t.Fatalf("post-ingest plan priced on %d r1 rows, want %d", got, want)
	}
	code, out, _ := post(t, ts.URL, QueryRequest{Query: `ans(A, B) :- r1(A, B).`})
	if want := origRows + 1 + origRows/3; code != http.StatusOK || out.RowCount != want {
		t.Fatalf("post-ingest query: status %d rows %d, want %d", code, out.RowCount, want)
	}

	var m Metrics
	getJSON(t, ts.URL+"/admin/metrics.json", &m)
	if m.Ingests != 2 || m.StatsFingerprint != st.Fingerprint() {
		t.Fatalf("metrics ingests=%d fp=%q, want 2/%q", m.Ingests, m.StatsFingerprint, st.Fingerprint())
	}
}

// An ingest of nothing but tuples the database already holds publishes
// nothing: the snapshot stays, so the warm plans' encodings stay valid and
// a repeated query encodes nothing.
func TestIngestOfDuplicatesPublishesNothing(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const triangle = `r1(X, Y), r2(Y, Z), r3(Z, X)`
	if code, _, _ := post(t, ts.URL, QueryRequest{Query: triangle}); code != http.StatusOK {
		t.Fatalf("warm-up query: status %d", code)
	}
	db, st := s.LiveDB(), s.LiveStats()
	r1 := db.Relation("r1")
	dup := fmt.Sprintf("r1(%s, %s).", db.ValueName(r1.Row(0)[0]), db.ValueName(r1.Row(0)[1]))
	code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: dup})
	if code != http.StatusOK {
		t.Fatalf("duplicate ingest: status %d: %s", code, raw)
	}
	var ing IngestResponse
	if err := json.Unmarshal(raw, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.FactsAdded != 0 || ing.StatsFingerprint != st.Fingerprint() || ing.Rows["r1"] != r1.Rows() {
		t.Fatalf("duplicate ingest reported %+v", ing)
	}
	if s.LiveDB() != db || s.LiveStats() != st {
		t.Fatal("an ingest that added nothing published a snapshot")
	}
	_, before := s.LiveDB().EncodedCounts()
	if code, _, _ := post(t, ts.URL, QueryRequest{Query: triangle}); code != http.StatusOK {
		t.Fatalf("repeated query: status %d", code)
	}
	if _, after := s.LiveDB().EncodedCounts(); after != before {
		t.Fatalf("repeated query after a duplicate ingest re-encoded: misses %d → %d", before, after)
	}
	if m := s.Metrics(); m.Ingests != 0 {
		t.Fatalf("ingests = %d, want 0", m.Ingests)
	}
}

// A body one byte over a route's limit is refused with 413, and on /query
// counted as an error.
func TestOversizedBodiesGet413(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct {
		route string
		field string
		limit int
	}{
		{"/query", "query", maxQueryBody},
		{"/admin/ingest", "facts", maxIngestBody},
	} {
		prefix := `{"` + c.field + `":"`
		body := prefix + strings.Repeat("a", c.limit+1-len(prefix)-2) + `"}`
		if len(body) != c.limit+1 {
			t.Fatalf("setup: body of %d bytes, want %d", len(body), c.limit+1)
		}
		errorsBefore := s.Metrics().Errors
		resp, err := http.Post(ts.URL+c.route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with %d bytes: status %d, want 413", c.route, len(body), resp.StatusCode)
		}
		wantErrors := errorsBefore
		if c.route == "/query" {
			wantErrors++
		}
		if got := s.Metrics().Errors; got != wantErrors {
			t.Fatalf("%s: errors %d → %d, want %d", c.route, errorsBefore, got, wantErrors)
		}
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

func TestTraceSamplingFeedsExemplars(t *testing.T) {
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
	// The stage histograms carry exemplars, exposed both in JSON...
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
	exp.Close() // the export is queued: wait for it to reach the sink
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

// A span sink that never answers costs the request path nothing: with every
// execution sampled and the OTLP/HTTP endpoint hung, the reply arrives in
// under a second — not after the exporter's 5 s client timeout — and the
// admission slot is already free when it does.
func TestHungSpanExporterDoesNotHoldTheReply(t *testing.T) {
	release := make(chan struct{})
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer sink.Close()
	exp := hypertree.NewOTLPHTTPExporter(sink.URL, "hdserve-test")
	defer exp.Close()
	defer close(release) // before exp.Close and sink.Close, which wait for the handler
	s := newTestServer(t, Config{MaxInflight: 1}, WithSpanExporter(exp), WithTraceSampling(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := range 2 {
		start := time.Now()
		code, _, _ := post(t, ts.URL, QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`})
		if took := time.Since(start); code != http.StatusOK || took > time.Second {
			t.Fatalf("sampled query %d against a hung span sink: status %d after %v", i, code, took)
		}
		if m := s.Metrics(); m.Inflight != 0 || m.TraceSampled != uint64(i+1) {
			t.Fatalf("after reply %d: inflight %d, %d traces sampled", i, m.Inflight, m.TraceSampled)
		}
	}
}

// TestConcurrentSnapshotSwapStress is the -race stress for the single
// snapshot: queries keep answering — identically — while ingests publish
// new snapshots underneath them, and no execution pairs one snapshot's
// database with another snapshot's statistics. The churned relation (aux)
// is not referenced by any query, so every answer must equal the
// pre-churn baseline; it grows by one row per ingest, so the statistics
// fingerprint, which covers every relation, moves with it while its counts
// are small.
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
	// Churner: ingest one fresh aux fact at a time.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			facts := fmt.Sprintf("aux(gen%d, gen%d).", i, i+1)
			if code, raw := postJSON(t, ts.URL+"/admin/ingest", IngestRequest{Facts: facts}); code != http.StatusOK {
				errc <- fmt.Errorf("ingest: status %d: %s", code, raw)
				return
			}
		}
	}()
	// Queriers: over HTTP the answers must never move; in process, every
	// execution's plan must be priced on the statistics of the database it
	// ran on — the snapshot's statistics, which CollectStatsSampled of that
	// database reproduces.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qi := (w + i) % len(queries)
				if i%2 == 1 {
					q := hypertree.MustParseQuery(queries[qi])
					res, _, err := s.evaluate(t.Context(), hypertree.CanonicalForm(q), q, time.Minute, false, 0)
					if err == nil {
						err = res.err
					}
					if err != nil {
						errc <- fmt.Errorf("worker %d evaluate %d: %v", w, i, err)
						return
					}
					got, want := res.plan.PlanStats().Fingerprint(), hypertree.CollectStatsSampled(res.db, 0).Fingerprint()
					if got != want {
						errc <- fmt.Errorf("worker %d: plan priced on fingerprint %s ran on a database whose statistics fingerprint %s", w, got, want)
						return
					}
					continue
				}
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
	// Queriers run a fixed amount of work; the churner keeps publishing
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
	if got, want := s.LiveStats().Rows("aux"), s.LiveDB().Relation("aux").Rows(); got != want {
		t.Fatalf("live statistics count %d aux rows, live database holds %d", got, want)
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
