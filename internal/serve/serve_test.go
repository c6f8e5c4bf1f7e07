package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypertree"
	"hypertree/internal/gen"
)

// newTestServer builds a Server over the standard serving workload.
func newTestServer(t *testing.T, cfg Config, opts ...Option) *Server {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = gen.ServingDatabase(rand.New(rand.NewSource(7)), 200, 60)
	}
	s, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// post fires one /query request and decodes the response envelope.
func post(t *testing.T, url string, req QueryRequest) (int, *QueryResponse, *ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out QueryResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		return resp.StatusCode, &out, nil
	}
	var out ErrorResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding error body %s: %v", raw, err)
	}
	return resp.StatusCode, nil, &out
}

func TestServeBooleanAndEnumeration(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Boolean: the triangle query over a dense-ish random database.
	code, out, _ := post(t, ts.URL, QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`})
	if code != http.StatusOK {
		t.Fatalf("boolean query: status %d", code)
	}
	if out.Boolean == nil {
		t.Fatalf("boolean query: no verdict in %+v", out)
	}
	if out.Width < 1 || !strings.HasPrefix(out.Decomposer, "auto(") {
		t.Fatalf("triangle should race to a plan, got width=%d decomposer=%q", out.Width, out.Decomposer)
	}

	// Enumeration: answers arrive under the requester's variable names.
	code, out, _ = post(t, ts.URL, QueryRequest{Query: `ans(A, C) :- r1(A, B), r2(B, C).`})
	if code != http.StatusOK {
		t.Fatalf("enum query: status %d", code)
	}
	if out.Boolean != nil {
		t.Fatal("enum query reported a Boolean verdict")
	}
	if len(out.Vars) != 2 || out.Vars[0] != "A" || out.Vars[1] != "C" {
		t.Fatalf("vars = %v, want requester's names [A C]", out.Vars)
	}
	if out.RowCount == 0 || len(out.Rows) == 0 {
		t.Fatalf("no answers on a 200-row-per-relation database: %+v", out)
	}

	// Row capping: a 1-row cap truncates but reports the full count.
	code, capped, _ := post(t, ts.URL, QueryRequest{Query: `ans(A, C) :- r1(A, B), r2(B, C).`, MaxRows: 1})
	if code != http.StatusOK || len(capped.Rows) != 1 || !capped.Truncated || capped.RowCount != out.RowCount {
		t.Fatalf("capped response wrong: %+v", capped)
	}
}

func TestServeCacheIsRenameInvariantAcrossRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := `r1(X1, X2), r2(X2, X3), r3(X3, X1)`
	for salt := 0; salt < 5; salt++ {
		src, err := gen.RenameQuery(base, salt)
		if err != nil {
			t.Fatal(err)
		}
		if code, _, e := post(t, ts.URL, QueryRequest{Query: src}); code != http.StatusOK {
			t.Fatalf("salt %d: status %d (%v)", salt, code, e)
		}
	}
	m := s.Metrics()
	if m.Cache.Misses != 1 || m.Cache.Hits != 4 {
		t.Fatalf("5 α-renamings must share one slot: %+v", m.Cache)
	}
	if m.Executions != 5 || m.Coalesced != 0 {
		t.Fatalf("sequential requests must each execute: %+v", m)
	}
}

// Two queries whose constants differ only in where the quotes fall are
// different requests: different cache and single-flight keys, each answered
// from its own plan.
func TestServeKeysQuotedConstantsApart(t *testing.T) {
	db := hypertree.NewDatabase()
	if err := db.AddFact("r", "a,'b", "c", "x1"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFact("r", "a", "b,'c", "x2"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{DB: db})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	keys := map[string]bool{}
	for _, tc := range []struct{ src, want string }{
		{`ans(X) :- r("a,'b", c, X).`, "x1"},
		{`ans(X) :- r(a, "b,'c", X).`, "x2"},
	} {
		code, out, e := post(t, ts.URL, QueryRequest{Query: tc.src})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", tc.src, code, e)
		}
		if len(out.Rows) != 1 || out.Rows[0][0] != tc.want {
			t.Errorf("%s answered %v, want [[%s]]", tc.src, out.Rows, tc.want)
		}
		keys[out.Query] = true
	}
	if m := s.Metrics(); len(keys) != 2 || m.Cache.Misses != 2 || m.Cache.Hits != 0 {
		t.Errorf("two different queries shared a key: keys %v, cache %+v", keys, m.Cache)
	}
}

func TestServeSingleFlightCoalescesInFlightTwins(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 8})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testExecGate = func() { entered <- struct{}{}; <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const followers = 5
	base := `r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X1)`
	type result struct {
		code int
		out  *QueryResponse
	}
	results := make(chan result, followers+1)
	fire := func(salt int) {
		src, err := gen.RenameQuery(base, salt)
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		code, out, _ := post(t, ts.URL, QueryRequest{Query: src, TimeoutMillis: 10_000})
		results <- result{code, out}
	}
	go fire(0)
	<-entered // the leader holds its worker slot, gated

	key := hypertree.CanonicalForm(hypertree.MustParseQuery(base))
	for i := 1; i <= followers; i++ {
		go fire(i)
	}
	// Wait until every follower has joined the leader's flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		c := s.flight[key]
		s.mu.Unlock()
		if c != nil && int(c.waiters.Load()) == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("followers never joined the in-flight twin")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var coalesced int
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.code)
		}
		if r.out.Coalesced {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Fatalf("%d responses flagged coalesced, want %d", coalesced, followers)
	}
	m := s.Metrics()
	if m.Executions != 1 {
		t.Fatalf("coalesced burst must execute exactly once, got %d executions", m.Executions)
	}
	if m.Coalesced != followers {
		t.Fatalf("coalesced counter = %d, want %d", m.Coalesced, followers)
	}
	if m.Cache.Misses != 1 {
		t.Fatalf("coalesced burst must compile at most once: %+v", m.Cache)
	}
}

// Coalesced requests share one execution but not one row cap: the leader
// buffers Config.MaxAnswerRows answers, so a follower asking for more rows
// than the leader gets its own, with the shared row_count and its own
// truncated flag.
func TestServeCoalescedFollowerRendersItsOwnRows(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 4, MaxAnswerRows: 8})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testExecGate = func() { entered <- struct{}{}; <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const src = `ans(A, C) :- r1(A, B), r2(B, C).`
	caps := []int{1, 5, 0} // the leader's, then two followers': 0 is the server's 8
	replies := make([]chan *QueryResponse, len(caps))
	fire := func(i int) {
		code, out, _ := post(t, ts.URL, QueryRequest{Query: src, MaxRows: caps[i], TimeoutMillis: 10_000})
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
		replies[i] <- out
	}
	for i := range replies {
		replies[i] = make(chan *QueryResponse, 1)
	}
	go fire(0)
	<-entered
	key := hypertree.CanonicalForm(hypertree.MustParseQuery(src))
	for i := 1; i < len(caps); i++ {
		go fire(i)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		c := s.flight[key]
		s.mu.Unlock()
		if c != nil && int(c.waiters.Load()) == len(caps)-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("followers never joined the in-flight twin")
		}
	}
	close(release)

	var outs []*QueryResponse
	for i := range caps {
		out := <-replies[i]
		if out == nil {
			t.FailNow()
		}
		outs = append(outs, out)
	}
	count := outs[0].RowCount
	if count <= 5 {
		t.Fatalf("row_count %d: the test needs more answers than the followers' caps", count)
	}
	for i, out := range outs {
		limit := caps[i]
		if limit == 0 {
			limit = 8
		}
		want := min(count, limit)
		if out.Coalesced != (i > 0) || out.RowCount != count || len(out.Rows) != want || out.Truncated != (count > want) {
			t.Fatalf("request %d (max_rows %d): coalesced %v, %d of %d rows, truncated %v; want %d of %d",
				i, caps[i], out.Coalesced, len(out.Rows), out.RowCount, out.Truncated, want, count)
		}
		if fmt.Sprint(out.Rows[0]) != fmt.Sprint(outs[0].Rows[0]) {
			t.Fatalf("request %d starts at %v, the leader at %v", i, out.Rows[0], outs[0].Rows[0])
		}
	}
	if m := s.Metrics(); m.Executions != 1 {
		t.Fatalf("%d executions, want 1", m.Executions)
	}
}

// A flight buffers as many answers as the largest row cap among the
// requests that joined it, not Config.MaxAnswerRows: a lone leader asking
// for 5 rows of a query with more answers walks 5.
func TestServeLeaderBuffersItsOwnRowCap(t *testing.T) {
	s := newTestServer(t, Config{MaxAnswerRows: 1000})
	q := hypertree.MustParseQuery(`ans(A, C) :- r1(A, B), r2(B, C).`)
	key := hypertree.CanonicalForm(q)
	res, coalesced, err := s.evaluate(context.Background(), key, q, 10*time.Second, false, s.rowLimit(5))
	if err == nil {
		err = res.err
	}
	if err != nil || coalesced {
		t.Fatalf("evaluate: coalesced %v, %v", coalesced, err)
	}
	if res.count <= 5 {
		t.Fatalf("%d answers: the test needs more than the cap", res.count)
	}
	if got := len(res.rows) / len(res.vars); got != 5 {
		t.Fatalf("the leader buffered %d rows, want its cap of 5", got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.flight) != 0 {
		t.Fatalf("%d flights left in the table", len(s.flight))
	}
}

// An answer count beyond int64 — 300⁸ ≈ 6.5e19 answers of an 8-leaf star
// over one centre of degree 300 — saturates at math.MaxInt64: the reply
// carries that row_count, truncated, and 10 rows, where materialising the
// answers would exhaust the heap.
func TestServeStarSaturatesRowCount(t *testing.T) {
	db := hypertree.NewDatabase()
	var atoms, head []string
	for i := 1; i <= 8; i++ {
		for j := 0; j < 300; j++ {
			db.AddFact(fmt.Sprint("r", i), "c", fmt.Sprint("x", j))
		}
		atoms = append(atoms, fmt.Sprintf("r%d(C, X%d)", i, i))
		head = append(head, fmt.Sprint("X", i))
	}
	s := newTestServer(t, Config{DB: db})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := fmt.Sprintf("ans(C, %s) :- %s.", strings.Join(head, ", "), strings.Join(atoms, ", "))
	code, out, _ := post(t, ts.URL, QueryRequest{Query: src, MaxRows: 10})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.RowCount != math.MaxInt64 || !out.Truncated || len(out.Rows) != 10 {
		t.Fatalf("row_count %d, truncated %v, %d rows; want math.MaxInt64, true, 10", out.RowCount, out.Truncated, len(out.Rows))
	}
}

func TestServeAdmissionShedsLoadAt503(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testExecGate = func() { entered <- struct{}{}; <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts.URL, QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`, TimeoutMillis: 10_000})
		done <- code
	}()
	<-entered // the only worker slot is now held

	// A DIFFERENT query cannot coalesce and cannot be admitted: 503 within
	// its own (short) deadline.
	code, _, e := post(t, ts.URL, QueryRequest{Query: `r1(A, B)`, TimeoutMillis: 50})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want 503", code, e)
	}

	// An IDENTICAL query joins the gated flight and times out as a
	// follower: 504, not 503.
	code, _, _ = post(t, ts.URL, QueryRequest{Query: `r1(U, V), r2(V, W), r3(W, U)`, TimeoutMillis: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("follower timeout: status %d, want 504", code)
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("leader: status %d", code)
	}
	m := s.Metrics()
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected)
	}
	if m.Errors < 2 {
		t.Fatalf("errors = %d, want ≥ 2 (one 503, one 504)", m.Errors)
	}
}

func TestServeErrorStatuses(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := post(t, ts.URL, QueryRequest{Query: `not a query (`}); code != http.StatusBadRequest {
		t.Fatalf("parse error: status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query": 42`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// A relation the database lacks evaluates as empty: a Boolean query over
	// it answers false, cleanly, without erroring or hanging.
	code, out, _ := post(t, ts.URL, QueryRequest{Query: `nosuch(X, Y)`})
	if code != http.StatusOK || out.Boolean == nil || *out.Boolean {
		t.Fatalf("unknown relation: status %d, verdict %+v, want 200/false", code, out)
	}
	if m := s.Metrics(); m.Errors < 2 {
		t.Fatalf("errors = %d, want ≥ 2", m.Errors)
	}
}

func TestServeMetricsAndExplainEndpoints(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := `r1(X1, X2), r2(X2, X3), r3(X3, X1)`
	if code, _, _ := post(t, ts.URL, QueryRequest{Query: q}); code != http.StatusOK {
		t.Fatal("seed query failed")
	}

	resp, err := http.Get(ts.URL + "/admin/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Requests != 1 || m.Executions != 1 || m.Cache.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.CacheCapacity != 32 {
		t.Fatalf("cache config not surfaced: %+v", m)
	}
	if h, ok := m.Routes["/query"]; !ok || h.Count != 1 {
		t.Fatalf("route histogram missing: %+v", m.Routes)
	}
	if h, ok := m.Stages["execute"]; !ok || h.Count != 1 {
		t.Fatalf("stage histogram missing: %+v", m.Stages)
	}

	// Explain shares the /query cache slot: the seed compile must hit.
	resp, err = http.Get(ts.URL + "/admin/explain?query=" + strings.ReplaceAll(q, " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(report), "plan{") {
		t.Fatalf("explain: status %d body %q", resp.StatusCode, report)
	}
	if mm := s.Metrics(); mm.Cache.Hits != 1 {
		t.Fatalf("explain must hit the warm slot: %+v", mm.Cache)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// Each metrics route times itself under its own key: one scrape of the
// Prometheus route and one of the JSON route leave one observation under
// each, not two under one.
func TestMetricsRoutesObserveUnderTheirOwnKeys(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 8})
	h := s.Handler()
	for _, route := range []string{"/admin/metrics", "/admin/metrics.json"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, route, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", route, w.Code)
		}
	}
	routes := s.Metrics().Routes
	for _, route := range []string{"/admin/metrics", "/admin/metrics.json"} {
		if got := routes[route].Count; got != 1 {
			t.Errorf("%s: %d observations, want 1 (routes %+v)", route, got, routes)
		}
	}
}

// Graceful drain: http.Server.Shutdown must let an in-flight query finish
// and answer 200 — the serving half of the SIGTERM contract (cmd/hdserve
// wires the signal; this pins the drain semantics it relies on).
func TestServeShutdownDrainsInflightRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testExecGate = func() { entered <- struct{}{}; <-release }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, url, QueryRequest{Query: `r1(X, Y), r2(Y, Z)`, TimeoutMillis: 10_000})
		done <- code
	}()
	<-entered // request is mid-execution

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the gated request, not abort it.
	select {
	case code := <-done:
		t.Fatalf("request completed (%d) before release — gate broken", code)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After the drain, new connections are refused.
	if _, err := http.Post(url+"/query", "application/json", strings.NewReader(`{}`)); err == nil {
		t.Fatal("post-drain connection accepted")
	}
	s.Close()
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond) // one tail outlier
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("count = %d", snap.Count)
	}
	// p50/p95 land in the 100µs bucket (factor-of-two resolution), p99+
	// must see the outlier's bucket.
	if snap.P50Micros < 50 || snap.P50Micros > 200 {
		t.Fatalf("p50 = %v µs, want ≈100", snap.P50Micros)
	}
	if snap.P95Micros < 50 || snap.P95Micros > 200 {
		t.Fatalf("p95 = %v µs, want ≈100", snap.P95Micros)
	}
	if snap.P99Micros > snap.P50Micros*4 && snap.P99Micros < 50_000 {
		t.Fatalf("p99 = %v µs, want either the 100µs mass or the 100ms outlier bucket", snap.P99Micros)
	}
	if snap.MaxMicros != 100_000 {
		t.Fatalf("max = %d µs", snap.MaxMicros)
	}
	if zero := (&Histogram{}).Snapshot(); zero.Count != 0 || zero.P99Micros != 0 {
		t.Fatalf("zero histogram snapshot = %+v", zero)
	}
}

func TestNewRejectsNilDB(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil DB accepted")
	}
}

func ExampleServer() {
	db := hypertree.NewDatabase()
	_ = db.ParseFacts(`r1(a, b). r2(b, c). r3(c, a).`)
	s, err := New(Config{DB: db})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{Query: `r1(X, Y), r2(Y, Z), r3(Z, X)`})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(*out.Boolean)
	// Output: true
}
