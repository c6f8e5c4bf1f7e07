// Package serve is the long-lived query-serving layer over the compile-once
// Plan API: a daemon-embeddable Server that owns one preloaded database, one
// statistics snapshot and one warm LRU+TTL PlanCache, and exposes query
// evaluation over HTTP.
//
// The design target is the Theorem 4.7 amortisation at serving scale: the
// exponential-in-k decomposition search runs (at most) once per distinct
// canonical query, every subsequent request — under any variable renaming —
// reuses the cached Plan, and concurrent identical requests are batched
// in flight so they share not just the compile but the execution itself.
//
// Request dataflow for POST /query:
//
//	parse → canonical key → join in-flight twin (coalesce)  ──┐
//	                      └ else: admission (bounded worker    ├→ render per
//	                        pool) → PlanCache.Compile →        │  request
//	                        Plan.Answers under deadline ───────┘
//
// Admission is a bounded worker pool: at most MaxInflight plan executions
// run concurrently, queued leaders wait no longer than their own request
// deadline, and an admission miss is a fast 503 — load shedding, not
// collapse. The per-request deadline (client-supplied timeout_ms, clamped
// to MaxTimeout) bounds compile + execute; the decomposition search
// additionally runs under StepBudget, so adversarial queries cannot pin a
// worker on an NP-hard search.
//
// An admin surface exports the serving state: GET /admin/metrics serves the
// counters, gauges and log₂ latency histograms (per route and per pipeline
// stage) in the Prometheus text exposition format, GET /admin/metrics.json
// the same snapshot as JSON, GET /admin/explain compiled-plan reports, GET
// /healthz liveness, and /debug/pprof the standard Go profiles. Per-request
// observability is opt-in: a /query request with "trace": true receives the
// span summary of its execution (see QueryRequest.Trace), and a configured
// slow-query threshold appends every slow execution — with its trace — as
// one JSON line to the slow-query log.
//
// Graceful drain: the Server is carried by a standard *http.Server, so
// SIGTERM handling is http.Server.Shutdown — in-flight requests run to
// completion (their execution contexts derive from the Server's lifecycle
// context, not the closed listener) — followed by Server.Close, which
// cancels anything still running. See cmd/hdserve for the wiring.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hypertree"
)

// ErrOverloaded is the admission-control verdict (HTTP 503): no worker slot
// became free within the request's deadline.
var ErrOverloaded = errors.New("serve: server overloaded, try again later")

// Config parameterises a Server. The zero value of every field selects a
// sensible serving default; only DB is mandatory.
type Config struct {
	// DB is the database every query executes against (required). The
	// Server treats it as immutable: load it fully before New.
	DB *hypertree.Database
	// Stats is the statistics snapshot cost-based planning prices plans
	// against. Nil collects a sampled snapshot from DB at startup — the
	// snapshot is shared by every compile, so its fingerprint keeps all
	// requests on the same PlanCache slots.
	Stats *hypertree.Stats
	// CacheSize bounds the PlanCache (≤ 0: hypertree.DefaultPlanCacheSize).
	CacheSize int
	// CacheTTL expires cached plans (≤ 0: never). A TTL suits databases
	// that drift underneath the daemon: plans stay correct regardless, but
	// re-compiling re-ranks them against fresher statistics.
	CacheTTL time.Duration
	// MaxInflight bounds concurrently executing queries (≤ 0: twice
	// GOMAXPROCS). Queued requests wait up to their deadline, then 503.
	MaxInflight int
	// DefaultTimeout bounds compile+execute when the request does not
	// supply timeout_ms (≤ 0: 5s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeouts (≤ 0: 60s).
	MaxTimeout time.Duration
	// StepBudget bounds every decomposition search (≤ 0: 2_000_000 steps,
	// a few hundred milliseconds worst case).
	StepBudget int
	// MaxAnswerRows caps the rows marshalled into one response; the full
	// count is always reported and truncation is flagged (≤ 0: 1000).
	MaxAnswerRows int
	// SlowQuery is the slow-query threshold: every /query execution whose
	// compile+execute wall time reaches it is appended as one JSON line —
	// with its execution trace — to SlowQueryLog (0: logging off). With a
	// threshold set, every execution is traced, so the log line can name
	// the node where the time went.
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query JSON lines (nil with SlowQuery
	// set: os.Stderr). The Server serialises writes; each line is one
	// self-contained JSON object.
	SlowQueryLog io.Writer
	// StatsRefresh re-collects the statistics snapshot on this period and
	// atomically swaps it in (0: no timed refresh). Plans already compiled
	// stay valid; fingerprint-keyed PlanCache slots re-rank on their next
	// compile.
	StatsRefresh time.Duration
	// QErrorThreshold arms the feedback-triggered refresh: when the
	// process-wide QErrorReport shows some node's median q-error over its
	// last QErrorWindow executions under the live fingerprint above this
	// value, the snapshot is refreshed ahead of the timer (0: trigger off).
	QErrorThreshold float64
	// QErrorWindow is the consecutive-execution window the trigger's median
	// is taken over (≤ 0: stats.DefaultQErrorWindow).
	QErrorWindow int
	// RefreshCooldown is the minimum spacing between feedback-triggered
	// refreshes (≤ 0: stats.DefaultCooldown).
	RefreshCooldown time.Duration
}

// withDefaults resolves every unset Config field.
func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = hypertree.DefaultPlanCacheSize
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.StepBudget <= 0 {
		c.StepBudget = 2_000_000
	}
	if c.MaxAnswerRows <= 0 {
		c.MaxAnswerRows = 1000
	}
	if c.SlowQuery > 0 && c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	return c
}

// A Server owns the warm serving state — database, statistics snapshot,
// PlanCache — and hands out its HTTP surface via Handler. Create with New,
// serve Handler() through an *http.Server, and Close after draining. Safe
// for concurrent use.
//
// The database and statistics snapshot live behind atomic pointers: ingest
// (POST /admin/ingest) builds a mutated deep copy off to the side and swaps
// it in, and the StatsRefresher swaps fresh statistics, while in-flight
// executions keep the immutable snapshots they started with. Because
// PlanCache keys embed the statistics fingerprint, a swap never invalidates
// or collides — each query simply re-ranks under the new fingerprint on its
// next compile.
type Server struct {
	cfg       Config
	db        atomic.Pointer[hypertree.Database]
	stats     atomic.Pointer[hypertree.Stats]
	cache     *hypertree.PlanCache
	baseOpts  []hypertree.CompileOption // per-request opts = baseOpts + WithCostModel(live stats)
	startedAt time.Time

	sampler   *hypertree.TraceSampler // 1-in-N always-on tracing, nil when off
	exporter  *hypertree.OTLPExporter // OTel span sink, nil when off
	refresher *hypertree.StatsRefresher

	baseCtx context.Context // execution lifecycle: outlives closed listeners
	stop    context.CancelFunc

	sem chan struct{} // admission: one slot per executing leader

	mu     sync.Mutex
	flight map[string]*flightCall

	ingestMu sync.Mutex // serialises clone-mutate-swap ingests

	requests    atomic.Uint64 // /query requests received
	errors      atomic.Uint64 // /query non-2xx responses
	rejected    atomic.Uint64 // admission 503s (also counted in errors)
	executions  atomic.Uint64 // plan executions actually run (leaders)
	coalesced   atomic.Uint64 // requests served by joining an in-flight twin
	slowQueries atomic.Uint64 // executions at/over the slow-query threshold
	ingests     atomic.Uint64 // /admin/ingest mutations applied

	histMu sync.Mutex
	hists  map[string]*Histogram // per-route request latency
	stages map[string]*Histogram // per-stage (compile, execute) latency

	slowMu sync.Mutex // serialises slow-query log lines

	// testExecGate, when set (tests only), runs on the leader goroutine
	// after admission and before compile+execute — the hook drain and
	// coalescing tests use to hold a request measurably in flight.
	testExecGate func()
}

// An Option tunes a Server beyond its Config — the knobs that carry
// behaviour (samplers, exporters) rather than plain values.
type Option func(*Server)

// WithTraceSampling turns on always-on production tracing: every nth /query
// execution that would otherwise run untraced gets a trace, feeding the
// q-error table, the histogram exemplars and the span exporter at 1/n of
// the tracing overhead. n ≤ 0 leaves sampling off.
func WithTraceSampling(n int) Option {
	return func(s *Server) { s.sampler = hypertree.NewTraceSampler(n) }
}

// WithSpanExporter ships every traced execution's spans through e (see
// hypertree.NewOTLPFileExporter / NewOTLPHTTPExporter). Export failures are
// counted by the exporter and never fail the request.
func WithSpanExporter(e *hypertree.OTLPExporter) Option {
	return func(s *Server) { s.exporter = e }
}

// flightCall is one in-flight single-flight execution: the leader publishes
// its result and closes done; followers render the shared result under
// their own request parameters.
type flightCall struct {
	done    chan struct{}
	waiters atomic.Int32 // followers currently joined (observability/tests)
	res     flightResult
}

// flightResult is what one shared compile+execute produced: the answer
// count and the first Config.MaxAnswerRows answers, so the leader and every
// follower render from one buffer whatever their own row caps.
type flightResult struct {
	plan          *hypertree.Plan
	count         int                 // the answer count (1 or 0 for a Boolean query)
	vars          []int               // the answer columns
	rows          []hypertree.Value   // the buffered answers, row-major over vars
	db            *hypertree.Database // the snapshot the leader executed against
	boolean       bool                // count is a Boolean verdict
	compileMicros int64
	execMicros    int64
	trace         *hypertree.Trace // non-nil when the leader traced
	err           error
}

// New builds a Server over cfg.DB, collecting a sampled statistics snapshot
// when cfg.Stats is nil. The returned Server is ready to serve; when Config
// arms a timed or q-error-triggered statistics refresh, its loop runs until
// Close.
func New(cfg Config, opts ...Option) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("serve: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	st := cfg.Stats
	if st == nil {
		st = hypertree.CollectStatsSampled(cfg.DB, 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     hypertree.NewPlanCacheTTL(cfg.CacheSize, cfg.CacheTTL),
		startedAt: time.Now(),
		baseCtx:   ctx,
		stop:      cancel,
		sem:       make(chan struct{}, cfg.MaxInflight),
		flight:    map[string]*flightCall{},
		hists:     map[string]*Histogram{},
		stages:    map[string]*Histogram{},
	}
	s.db.Store(cfg.DB)
	s.installStats(st)
	// The options shared by every request; each compile appends
	// WithCostModel(live snapshot), so identical options (and one stats
	// fingerprint at a time) mean every α-equivalent query shares one cache
	// slot per snapshot.
	s.baseOpts = []hypertree.CompileOption{
		hypertree.WithAutoStrategy(),
		hypertree.WithStepBudget(cfg.StepBudget),
	}
	for _, o := range opts {
		o(s)
	}
	s.refresher = hypertree.NewStatsRefresher(hypertree.StatsRefresherConfig{
		Collect:         func() *hypertree.Stats { return hypertree.CollectStatsSampled(s.db.Load(), 0) },
		Install:         s.installStats,
		Interval:        cfg.StatsRefresh,
		QErrorThreshold: cfg.QErrorThreshold,
		Window:          cfg.QErrorWindow,
		Cooldown:        cfg.RefreshCooldown,
		Live:            func() string { return s.stats.Load().Fingerprint() },
	})
	if cfg.StatsRefresh > 0 || cfg.QErrorThreshold > 0 {
		go s.refresher.Run(s.baseCtx)
	}
	return s, nil
}

// installStats publishes a statistics snapshot: the atomic swap every
// subsequent compile picks up, plus the live-fingerprint announcement that
// protects the snapshot's q-error feedback from eviction.
func (s *Server) installStats(st *hypertree.Stats) {
	s.stats.Store(st)
	hypertree.SetLiveStatsFingerprint(st.Fingerprint())
}

// compileOpts returns the compile options for one request: the shared base
// plus the cost model of the live statistics snapshot. The snapshot is
// captured once per call so a concurrent refresh cannot split one compile
// across two fingerprints.
func (s *Server) compileOpts(st *hypertree.Stats) []hypertree.CompileOption {
	return append(s.baseOpts[:len(s.baseOpts):len(s.baseOpts)], hypertree.WithCostModel(st))
}

// Close cancels the lifecycle context behind every in-flight execution (and
// the statistics-refresh loop). Call it after http.Server.Shutdown has
// drained the listeners (Shutdown first, so in-flight requests finish;
// Close then reaps stragglers).
func (s *Server) Close() { s.stop() }

// Cache exposes the server's PlanCache (metrics, purge on reload).
func (s *Server) Cache() *hypertree.PlanCache { return s.cache }

// Handler returns the Server's HTTP surface:
//
//	POST /query               evaluate a conjunctive query (JSON in/out)
//	GET  /admin/metrics       counters and latency histograms (Prometheus text)
//	GET  /admin/metrics.json  the same snapshot as JSON
//	GET  /admin/explain       compiled-plan report for ?query=... (text)
//	GET  /admin/qerror        the q-error feedback table as JSON
//	POST /admin/ingest        add facts to the served database (atomic swap)
//	POST /admin/refresh       force a statistics refresh now
//	GET  /debug/pprof/...     the standard Go profiles
//	GET  /healthz             liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /admin/metrics", s.handleMetrics)
	mux.HandleFunc("GET /admin/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /admin/explain", s.handleExplain)
	mux.HandleFunc("GET /admin/qerror", s.handleQError)
	mux.HandleFunc("POST /admin/ingest", s.handleIngest)
	mux.HandleFunc("POST /admin/refresh", s.handleRefresh)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	// Query is the conjunctive query in rule syntax; a headless body is a
	// Boolean query.
	Query string `json:"query"`
	// TimeoutMillis bounds compile+execute for this request (0: the
	// server's default; always clamped to the server's maximum).
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// MaxRows caps the answer rows marshalled into the response, below the
	// server-wide cap (0: the server-wide cap alone).
	MaxRows int `json:"max_rows,omitempty"`
	// Trace opts this request into execution tracing: the response carries
	// the span summary of the compile and execution that served it. A
	// coalesced request reports its leader's trace when the leader traced
	// (always the case once the server's slow-query log is enabled) and no
	// trace otherwise — tracing is decided by the flight leader, since the
	// execution is shared.
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the POST /query result.
type QueryResponse struct {
	// Query is the canonical form of the evaluated query — the PlanCache
	// and batching key, shared by every α-renaming of the same query.
	Query string `json:"query"`
	// Boolean carries the verdict of a Boolean query; nil otherwise.
	Boolean *bool `json:"boolean,omitempty"`
	// Vars names the answer columns in the requester's own variable names.
	Vars []string `json:"vars,omitempty"`
	// Rows holds up to MaxRows answer tuples as constant names.
	Rows [][]string `json:"rows,omitempty"`
	// RowCount is the full (pre-truncation) answer cardinality.
	RowCount int `json:"row_count"`
	// Truncated reports that Rows was capped below RowCount.
	Truncated bool `json:"truncated,omitempty"`
	// Plan summarises the compiled plan (strategy, width, decomposer).
	Plan string `json:"plan"`
	// Width is the plan's decomposition width (1 acyclic, 0 naive).
	Width int `json:"width"`
	// Decomposer names the engine that produced the decomposition; auto
	// race winners report as "auto(<engine>)".
	Decomposer string `json:"decomposer,omitempty"`
	// EstimatedCost is the plan's cost-model estimate (0 without stats).
	EstimatedCost float64 `json:"estimated_cost,omitempty"`
	// Coalesced reports that this request joined an in-flight twin instead
	// of compiling and executing itself.
	Coalesced bool `json:"coalesced"`
	// CompileMicros and ExecMicros time the shared compile (≈0 on a plan
	// cache hit) and execution.
	CompileMicros int64 `json:"compile_us"`
	ExecMicros    int64 `json:"exec_us"`
	// Trace is the span summary of the execution that served this request,
	// present only when the request set "trace": true and the flight leader
	// recorded one.
	Trace []SpanSummary `json:"trace,omitempty"`
}

// A SpanSummary is one trace span rendered for JSON consumers: the /query
// "trace": true response and the slow-query log. Node and Shard are -1 when
// the span has no node/shard identity, Rows is -1 when the stage emits no
// cardinality, and QError is reported only where an estimate exists to
// compare against (see the span taxonomy in docs/ARCHITECTURE.md).
type SpanSummary struct {
	// Name is the stage (e.g. "compile", "exec/node", "exec/node/shard").
	Name string `json:"name"`
	// Label carries free-form stage detail (decomposer names, χ/λ labels,
	// race verdicts).
	Label string `json:"label,omitempty"`
	// Node is the decomposition-node preorder index, or -1.
	Node int `json:"node"`
	// Shard is the shard index, or -1.
	Shard int `json:"shard"`
	// Micros is the span's wall-clock duration.
	Micros int64 `json:"us"`
	// Steps counts the stage's unit operations (joins, semijoins).
	Steps int64 `json:"steps,omitempty"`
	// Rows is the actual output cardinality, or -1.
	Rows int64 `json:"rows"`
	// EstRows is the planner's estimate for the same output, 0 without
	// statistics.
	EstRows float64 `json:"est_rows,omitempty"`
	// QError is max(est/actual, actual/est) where both sides exist.
	QError float64 `json:"q_error,omitempty"`
}

// summarizeTrace renders a trace's completed spans as SpanSummary records;
// nil on a nil or empty trace.
func summarizeTrace(t *hypertree.Trace) []SpanSummary {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanSummary, 0, len(spans))
	for _, sp := range spans {
		ss := SpanSummary{
			Name:    sp.Name,
			Label:   sp.Label,
			Node:    sp.Node,
			Shard:   sp.Shard,
			Micros:  sp.Micros,
			Steps:   sp.Steps,
			Rows:    sp.Rows,
			EstRows: sp.EstRows,
		}
		if sp.EstRows > 0 && sp.Rows >= 0 {
			ss.QError = hypertree.QError(sp.EstRows, sp.Rows)
		}
		out = append(out, ss)
	}
	return out
}

// ErrorResponse is the JSON error envelope for non-2xx responses.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// handleQuery implements POST /query: parse, coalesce-or-admit, compile
// through the warm cache, execute under the request deadline, render.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	defer func() { s.hist("/query").Observe(time.Since(start)) }()

	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeQueryError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	q, err := hypertree.ParseQuery(req.Query)
	if err != nil {
		s.writeQueryError(w, http.StatusBadRequest, err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	key := hypertree.CanonicalForm(q)

	// reqCtx bounds how long THIS requester waits (queueing + joining);
	// the shared execution itself runs under the leader's execCtx, which
	// derives from the server lifecycle, not from any one client
	// connection — a leader hanging up must not fail its followers.
	reqCtx, cancelReq := context.WithTimeout(r.Context(), timeout)
	defer cancelReq()

	res, coalesced, err := s.evaluate(reqCtx, key, q, timeout, req.Trace)
	if err == nil {
		err = res.err
	}
	if err != nil {
		s.writeQueryError(w, statusFor(err), err)
		return
	}
	if coalesced {
		s.coalesced.Add(1)
	}
	s.writeJSON(w, http.StatusOK, s.render(q, key, res, coalesced, req.MaxRows, req.Trace))
}

// evaluate returns the flight result for key, joining an in-flight twin
// when one exists and otherwise leading a fresh admission+compile+execute.
func (s *Server) evaluate(reqCtx context.Context, key string, q *hypertree.Query, timeout time.Duration, wantTrace bool) (*flightResult, bool, error) {
	s.mu.Lock()
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		c.waiters.Add(1)
		defer c.waiters.Add(-1)
		select {
		case <-c.done:
			return &c.res, true, nil
		case <-reqCtx.Done():
			return nil, true, reqCtx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	finish := func() {
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		close(c.done)
	}

	// Admission: wait for a worker slot, but never past this requester's
	// own deadline. Followers waiting on this flight inherit the verdict.
	select {
	case s.sem <- struct{}{}:
	case <-reqCtx.Done():
		err := ErrOverloaded
		if reqCtx.Err() == context.Canceled {
			err = reqCtx.Err()
		}
		c.res = flightResult{err: err}
		s.rejected.Add(1)
		finish()
		return &c.res, false, nil
	}
	defer func() { <-s.sem }()
	s.executions.Add(1)
	if s.testExecGate != nil {
		s.testExecGate()
	}

	execCtx, cancelExec := context.WithTimeout(s.baseCtx, timeout)
	defer cancelExec()
	c.res = s.compileAndExecute(execCtx, key, q, wantTrace)
	finish()
	return &c.res, false, nil
}

// compileAndExecute runs one shared compile (through the warm cache) and
// execution under ctx. When the leader asked for a trace — or the server
// logs slow queries, which needs one ready before it knows the query is
// slow — the whole pipeline runs under a per-request trace carried by the
// context, so the shared compile options (and with them the PlanCache keys)
// are identical with tracing on or off. Executions neither of those traced
// are offered to the 1-in-N sampler, which is what keeps the q-error
// feedback table (and the refresh trigger behind it) fed in production.
// Every trace that was recorded feeds the per-stage histogram exemplars and
// the span exporter.
func (s *Server) compileAndExecute(ctx context.Context, key string, q *hypertree.Query, wantTrace bool) flightResult {
	// Capture both snapshots once: a concurrent ingest or statistics
	// refresh swaps the pointers for later requests, never mid-flight.
	db := s.db.Load()
	st := s.stats.Load()
	res := flightResult{db: db}
	if wantTrace || s.cfg.SlowQuery > 0 {
		res.trace = hypertree.NewTrace()
	} else {
		res.trace = s.sampler.Sample() // nil unless this execution is the Nth
	}
	if res.trace != nil {
		ctx = hypertree.ContextWithTrace(ctx, res.trace)
		defer func() { s.exporter.Export(res.trace) }()
	}
	if s.cfg.SlowQuery > 0 {
		slowStart := time.Now()
		defer func() {
			if time.Since(slowStart) >= s.cfg.SlowQuery {
				s.logSlowQuery(key, &res)
			}
		}()
	}
	traceID := res.trace.TraceID()
	t0 := time.Now()
	plan, err := s.cache.Compile(ctx, q, s.compileOpts(st)...)
	res.compileMicros = time.Since(t0).Microseconds()
	s.stageHist("compile").ObserveExemplar(time.Since(t0), traceID)
	if err != nil {
		res.err = err
		return res
	}
	res.plan = plan
	t1 := time.Now()
	res.err = res.fill(ctx, plan, db, s.cfg.MaxAnswerRows)
	res.execMicros = time.Since(t1).Microseconds()
	s.stageHist("execute").ObserveExemplar(time.Since(t1), traceID)
	res.boolean = q.IsBoolean()
	return res
}

// fill executes plan on db and keeps the answer count and up to limit
// answers: the rows no reply can render are never walked.
func (res *flightResult) fill(ctx context.Context, plan *hypertree.Plan, db *hypertree.Database, limit int) error {
	a, err := plan.Answers(ctx, db)
	if err != nil {
		return err
	}
	defer a.Close()
	res.count, res.vars = a.Count(), a.Vars()
	for range min(res.count, limit) {
		row, ok := a.Next()
		if !ok {
			return a.Err()
		}
		res.rows = append(res.rows, row...)
	}
	return nil
}

// slowQueryRecord is one JSON line of the slow-query log.
type slowQueryRecord struct {
	// Time is the UTC completion time, RFC 3339 with nanoseconds.
	Time string `json:"ts"`
	// Query is the canonical query — the PlanCache and batching key.
	Query string `json:"query"`
	// CompileMicros and ExecMicros split the wall time that tripped the
	// threshold.
	CompileMicros int64 `json:"compile_us"`
	ExecMicros    int64 `json:"exec_us"`
	// Plan summarises the compiled plan, when compilation succeeded.
	Plan string `json:"plan,omitempty"`
	// Rows is the answer count of a successful execution, however few
	// rows its replies rendered.
	Rows int `json:"rows,omitempty"`
	// Error reports a failed compile or execution (e.g. deadline exceeded —
	// exactly the executions a slow-query log exists to catch).
	Error string `json:"error,omitempty"`
	// Trace is the execution's span summary.
	Trace []SpanSummary `json:"trace,omitempty"`
}

// logSlowQuery counts one slow execution and appends its record to the
// slow-query log.
func (s *Server) logSlowQuery(key string, res *flightResult) {
	s.slowQueries.Add(1)
	if s.cfg.SlowQueryLog == nil {
		return
	}
	rec := slowQueryRecord{
		Time:          time.Now().UTC().Format(time.RFC3339Nano),
		Query:         key,
		CompileMicros: res.compileMicros,
		ExecMicros:    res.execMicros,
		Trace:         summarizeTrace(res.trace),
	}
	if res.plan != nil {
		rec.Plan = res.plan.String()
	}
	switch {
	case res.err != nil:
		rec.Error = res.err.Error()
	default:
		rec.Rows = res.count
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.slowMu.Lock()
	_, _ = s.cfg.SlowQueryLog.Write(line)
	s.slowMu.Unlock()
}

// render shapes a shared flight result for one requester: the requester's
// own variable names (α-equivalent queries intern identical variable IDs,
// so the shared table's columns line up) and its own row cap.
func (s *Server) render(q *hypertree.Query, key string, res *flightResult, coalesced bool, maxRows int, wantTrace bool) *QueryResponse {
	out := &QueryResponse{
		Query:         key,
		Plan:          res.plan.String(),
		Width:         res.plan.Width(),
		Decomposer:    res.plan.DecomposerName(),
		EstimatedCost: res.plan.EstimatedCost(),
		Coalesced:     coalesced,
		CompileMicros: res.compileMicros,
		ExecMicros:    res.execMicros,
	}
	if wantTrace {
		out.Trace = summarizeTrace(res.trace)
	}
	if res.boolean {
		verdict := res.count > 0
		out.Boolean = &verdict
		return out
	}
	out.RowCount = res.count
	limit := s.cfg.MaxAnswerRows
	if maxRows > 0 && maxRows < limit {
		limit = maxRows
	}
	n := out.RowCount
	if n > limit {
		n, out.Truncated = limit, true
	}
	for _, v := range res.vars {
		out.Vars = append(out.Vars, q.VarName(v))
	}
	w := len(res.vars)
	out.Rows = make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row := res.rows[i*w : (i+1)*w]
		named := make([]string, len(row))
		for j, val := range row {
			// Render against the database snapshot the leader executed on:
			// a concurrent ingest may already have swapped in a successor
			// whose dictionary this result's Values do not index safely.
			named[j] = res.db.ValueName(val)
		}
		out.Rows = append(out.Rows, named)
	}
	return out
}

// Metrics is the serving-state snapshot behind GET /admin/metrics.json
// (this struct as JSON) and GET /admin/metrics (the same snapshot in the
// Prometheus text exposition format): the serving counters, the PlanCache,
// and per-route and per-stage latency histograms.
type Metrics struct {
	// UptimeSeconds counts from New.
	UptimeSeconds float64 `json:"uptime_s"`
	// Requests, Errors, Rejected, Executions and Coalesced are cumulative
	// /query counters: total received, non-2xx responses, admission 503s
	// (a subset of Errors), plan executions actually run, and requests
	// served by joining an in-flight twin. Requests = Executions +
	// Coalesced + admission/parse failures, so Coalesced > 0 is the
	// observable proof that in-flight batching fired.
	Requests   uint64 `json:"requests"`
	Errors     uint64 `json:"errors"`
	Rejected   uint64 `json:"rejected"`
	Executions uint64 `json:"executions"`
	Coalesced  uint64 `json:"coalesced"`
	// SlowQueries counts executions at or over the slow-query threshold
	// (always 0 with slow-query logging disabled).
	SlowQueries uint64 `json:"slow_queries"`
	// Inflight and MaxInflight report the worker pool: currently occupied
	// slots and the admission bound.
	Inflight    int `json:"inflight"`
	MaxInflight int `json:"max_inflight"`
	// StatsFingerprint identifies the live statistics snapshot; it moves on
	// every refresh, and PlanCache keys embed it.
	StatsFingerprint string `json:"stats_fingerprint"`
	// StatsRefreshes counts installed snapshot refreshes (timed, q-error-
	// triggered and forced via POST /admin/refresh); StatsRefreshesTriggered
	// is the q-error-triggered subset.
	StatsRefreshes          uint64 `json:"stats_refreshes"`
	StatsRefreshesTriggered uint64 `json:"stats_refreshes_triggered"`
	// Ingests counts applied POST /admin/ingest mutations.
	Ingests uint64 `json:"ingests"`
	// TraceSampleEvery echoes the 1-in-N sampling configuration (0: off);
	// TraceSampled counts executions the sampler actually traced.
	TraceSampleEvery int    `json:"trace_sample_every"`
	TraceSampled     uint64 `json:"trace_sampled"`
	// SpansExported and SpanExportFailures count OTel trace exports (both 0
	// without an exporter).
	SpansExported      uint64 `json:"spans_exported"`
	SpanExportFailures uint64 `json:"span_export_failures"`
	// Cache snapshots the PlanCache counters; CacheHitRate is
	// Hits/(Hits+Misses) (0 before the first compile), and CacheCapacity /
	// CacheTTLSeconds echo the configuration.
	Cache           hypertree.CacheMetrics `json:"cache"`
	CacheHitRate    float64                `json:"cache_hit_rate"`
	CacheCapacity   int                    `json:"cache_capacity"`
	CacheTTLSeconds float64                `json:"cache_ttl_s"`
	// ColumnarCacheHits and ColumnarCacheMisses are the process-wide
	// Columnar encoding-cache totals (hypertree.ColumnarCacheMetrics): every
	// plan encodes its λ relations through a per-plan cache, so a warm plan repeating against one database snapshot hits after its first
	// execution, and an /admin/ingest swap shows up as fresh misses.
	ColumnarCacheHits   uint64 `json:"columnar_cache_hits"`
	ColumnarCacheMisses uint64 `json:"columnar_cache_misses"`
	// NodeQErrors maps decomposition-node labels to the median q-error over
	// their recent executions under the live statistics fingerprint — the
	// same per-node signal the refresh trigger watches, exported as the
	// hdserve_node_qerror_median{node=...} gauge family.
	NodeQErrors map[string]float64 `json:"node_qerrors,omitempty"`
	// Routes maps each HTTP route to its latency histogram snapshot.
	Routes map[string]HistogramSnapshot `json:"routes"`
	// Stages maps each /query pipeline stage ("compile", "execute") to its
	// latency histogram snapshot, aggregated over every leader execution —
	// the split a route histogram cannot show.
	Stages map[string]HistogramSnapshot `json:"stages"`
}

// Metrics snapshots the serving counters (also served on /admin/metrics
// and /admin/metrics.json).
func (s *Server) Metrics() Metrics {
	cm := s.cache.Metrics()
	m := Metrics{
		UptimeSeconds:           time.Since(s.startedAt).Seconds(),
		Requests:                s.requests.Load(),
		Errors:                  s.errors.Load(),
		Rejected:                s.rejected.Load(),
		Executions:              s.executions.Load(),
		Coalesced:               s.coalesced.Load(),
		SlowQueries:             s.slowQueries.Load(),
		Inflight:                len(s.sem),
		MaxInflight:             s.cfg.MaxInflight,
		StatsFingerprint:        s.stats.Load().Fingerprint(),
		StatsRefreshes:          s.refresher.Refreshes(),
		StatsRefreshesTriggered: s.refresher.Triggered(),
		Ingests:                 s.ingests.Load(),
		TraceSampleEvery:        s.sampler.N(),
		TraceSampled:            s.sampler.Sampled(),
		SpansExported:           s.exporter.Exported(),
		SpanExportFailures:      s.exporter.Failed(),
		Cache:                   cm,
		CacheCapacity:           s.cache.Capacity(),
		CacheTTLSeconds:         s.cache.TTL().Seconds(),
		Routes:                  map[string]HistogramSnapshot{},
		Stages:                  map[string]HistogramSnapshot{},
	}
	if cm.Hits+cm.Misses > 0 {
		m.CacheHitRate = float64(cm.Hits) / float64(cm.Hits+cm.Misses)
	}
	m.ColumnarCacheHits, m.ColumnarCacheMisses = hypertree.ColumnarCacheMetrics()
	live := m.StatsFingerprint
	window := qWindowOrDefault(s.cfg.QErrorWindow)
	for _, e := range hypertree.QErrorReport() {
		if e.Fingerprint != live {
			continue
		}
		if m.NodeQErrors == nil {
			m.NodeQErrors = map[string]float64{}
		}
		m.NodeQErrors[e.Node] = e.MedianRecent(min(len(e.Recent), window))
	}
	s.histMu.Lock()
	for route, h := range s.hists {
		m.Routes[route] = h.Snapshot()
	}
	for stage, h := range s.stages {
		m.Stages[stage] = h.Snapshot()
	}
	s.histMu.Unlock()
	return m
}

// handleMetrics implements GET /admin/metrics: the Prometheus text
// exposition of the Metrics snapshot, scrapeable by a stock Prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.hist("/admin/metrics").Observe(time.Since(start)) }()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePromMetrics(w, s.Metrics())
}

// handleMetricsJSON implements GET /admin/metrics.json: the same snapshot
// as a JSON document (what programmatic consumers such as bench/ read).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.hist("/admin/metrics").Observe(time.Since(start)) }()
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

// handleExplain implements GET /admin/explain?query=...: the compiled
// plan's per-node cost/width report, compiling through the warm cache (so
// explaining a served query is a cache hit, and explaining a new one warms
// its slot).
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.hist("/admin/explain").Observe(time.Since(start)) }()
	q, err := hypertree.ParseQuery(r.URL.Query().Get("query"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.DefaultTimeout)
	defer cancel()
	plan, err := s.cache.Compile(ctx, q, s.compileOpts(s.stats.Load())...)
	if err != nil {
		s.writeJSON(w, statusFor(err), ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, plan.Explain())
}

// IngestRequest is the POST /admin/ingest payload: ground facts in the
// standard "rel(a, b)." syntax, one or more per line.
type IngestRequest struct {
	// Facts holds the ground atoms to add (rel(a,b). syntax; duplicates of
	// existing tuples are ignored by set semantics).
	Facts string `json:"facts"`
}

// IngestResponse reports one applied ingest.
type IngestResponse struct {
	// FactsAdded is how many tuples the database actually grew by (posted
	// duplicates do not count).
	FactsAdded int `json:"facts_added"`
	// Rows maps every relation to its post-ingest cardinality.
	Rows map[string]int `json:"rows"`
	// StatsFingerprint is the live statistics fingerprint — unchanged by
	// ingest itself; it moves when the refresher (or POST /admin/refresh)
	// re-collects.
	StatsFingerprint string `json:"stats_fingerprint"`
}

// handleIngest implements POST /admin/ingest: parse the posted facts into a
// deep copy of the served database and atomically swap the copy in.
// In-flight executions keep the snapshot they started with; statistics are
// deliberately NOT re-collected here — they go stale by design, and the
// q-error feedback loop (or the refresh timer, or POST /admin/refresh) is
// what brings them back in line. Ingests are serialised; queries are not
// blocked at any point.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.hist("/admin/ingest").Observe(time.Since(start)) }()
	var req IngestRequest
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	s.ingestMu.Lock()
	cur := s.db.Load()
	next := cur.Clone()
	if err := next.ParseFacts(req.Facts); err != nil {
		s.ingestMu.Unlock()
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	s.db.Store(next)
	s.ingestMu.Unlock()
	s.ingests.Add(1)

	resp := IngestResponse{Rows: map[string]int{}, StatsFingerprint: s.stats.Load().Fingerprint()}
	for _, name := range next.RelationNames() {
		resp.Rows[name] = next.Relation(name).Rows()
		if old := cur.Relation(name); old != nil {
			resp.FactsAdded += next.Relation(name).Rows() - old.Rows()
		} else {
			resp.FactsAdded += next.Relation(name).Rows()
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// RefreshResponse reports one forced statistics refresh.
type RefreshResponse struct {
	// StatsFingerprint is the fingerprint of the freshly-installed snapshot.
	StatsFingerprint string `json:"stats_fingerprint"`
	// Refreshes is the cumulative refresh count (timed + triggered +
	// forced), including this one.
	Refreshes uint64 `json:"refreshes"`
}

// handleRefresh implements POST /admin/refresh: re-collect sampled
// statistics from the live database and install the snapshot now,
// independent of the timer and the q-error trigger.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.hist("/admin/refresh").Observe(time.Since(start)) }()
	st := s.refresher.Refresh()
	s.writeJSON(w, http.StatusOK, RefreshResponse{
		StatsFingerprint: st.Fingerprint(),
		Refreshes:        s.refresher.Refreshes(),
	})
}

// QErrorStatus is the GET /admin/qerror payload: the process-wide q-error
// feedback table plus the fingerprint currently serving, which is what lets
// a load harness compare estimation quality before and after a refresh.
type QErrorStatus struct {
	// LiveFingerprint is the installed statistics snapshot's fingerprint.
	LiveFingerprint string `json:"live_fingerprint"`
	// Entries lists the feedback table, worst MaxQ first.
	Entries []QErrorEntryStatus `json:"entries"`
}

// QErrorEntryStatus is one feedback-table entry rendered for JSON consumers.
type QErrorEntryStatus struct {
	// Fingerprint keys the statistics snapshot the estimates were priced
	// against; Live flags whether it is the currently-serving one.
	Fingerprint string `json:"fingerprint"`
	Live        bool   `json:"live"`
	// Node labels the decomposition node.
	Node string `json:"node"`
	// Count, MaxQ and MeanQ summarise all recorded executions.
	Count int64   `json:"count"`
	MaxQ  float64 `json:"max_q"`
	MeanQ float64 `json:"mean_q"`
	// MedianRecent is the median q-error over the entry's retained recent
	// executions (up to the feedback ring size) — the refresh trigger's
	// signal.
	MedianRecent float64 `json:"median_recent"`
}

// handleQError implements GET /admin/qerror.
func (s *Server) handleQError(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.hist("/admin/qerror").Observe(time.Since(start)) }()
	live := s.stats.Load().Fingerprint()
	status := QErrorStatus{LiveFingerprint: live}
	for _, e := range hypertree.QErrorReport() {
		st := QErrorEntryStatus{
			Fingerprint:  e.Fingerprint,
			Live:         e.Fingerprint == live,
			Node:         e.Node,
			Count:        e.Count,
			MaxQ:         e.MaxQ,
			MeanQ:        e.MeanQ,
			MedianRecent: e.MedianRecent(min(len(e.Recent), qWindowOrDefault(s.cfg.QErrorWindow))),
		}
		status.Entries = append(status.Entries, st)
	}
	s.writeJSON(w, http.StatusOK, status)
}

// qWindowOrDefault resolves the configured q-error window.
func qWindowOrDefault(w int) int {
	if w > 0 {
		return w
	}
	return hypertree.DefaultQErrorWindow
}

// Refresher exposes the server's statistics refresher (metrics, tests,
// admin tooling).
func (s *Server) Refresher() *hypertree.StatsRefresher { return s.refresher }

// LiveStats returns the currently-installed statistics snapshot.
func (s *Server) LiveStats() *hypertree.Stats { return s.stats.Load() }

// LiveDB returns the currently-served database snapshot (an ingest swaps in
// a successor; earlier snapshots stay valid for readers holding them).
func (s *Server) LiveDB() *hypertree.Database { return s.db.Load() }

// hist returns (creating on first use) the named route histogram.
func (s *Server) hist(route string) *Histogram {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	h, ok := s.hists[route]
	if !ok {
		h = &Histogram{}
		s.hists[route] = h
	}
	return h
}

// stageHist returns (creating on first use) the named pipeline-stage
// histogram.
func (s *Server) stageHist(stage string) *Histogram {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	h, ok := s.stages[stage]
	if !ok {
		h = &Histogram{}
		s.stages[stage] = h
	}
	return h
}

// statusFor maps an evaluation error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable // shutdown or client hang-up
	case errors.Is(err, hypertree.ErrStepBudget),
		errors.Is(err, hypertree.ErrWidthExceeded),
		errors.Is(err, hypertree.ErrInvalidWidth):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// writeQueryError renders a /query failure and counts it.
func (s *Server) writeQueryError(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// writeJSON renders v with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
