// Command hdserve is the query-serving daemon over internal/serve: it loads
// one database at startup, collects a sampled statistics snapshot, warms an
// LRU+TTL PlanCache, and serves conjunctive-query evaluation over HTTP.
//
// Usage:
//
//	hdserve [-addr :8080] (-db factsfile | -gen-rows N [-gen-domain D] [-gen-seed S])
//	        [-cache-size N] [-cache-ttl D] [-max-inflight N]
//	        [-timeout D] [-max-timeout D] [-step-budget N] [-max-rows N]
//	        [-slowquery-ms N] [-portfile PATH] [-drain D]
//	        [-trace-sample N] [-otel-file PATH | -otel-endpoint URL]
//	        [-stats-refresh D] [-qerror-threshold Q] [-qerror-window N]
//	        [-refresh-cooldown D]
//
// The database is either a facts file (-db, ground atoms in "r(a,b)." form)
// or the generated serving database (-gen-rows: random binary relations
// r1..r4 over a shared constant domain, so cycles and stars over them join).
// -portfile writes the bound listen address to a file once the listener is
// up — scripts that start hdserve on ":0" read it to find the ephemeral
// port.
//
// Endpoints: POST /query (JSON; "trace": true opts into a per-request span
// summary), POST /admin/ingest (append facts to the live database), POST
// /admin/refresh (force a statistics refresh), GET /admin/qerror (the
// cardinality-feedback table), GET /admin/metrics (Prometheus text),
// GET /admin/metrics.json, GET /admin/explain, GET /debug/pprof,
// GET /healthz. See internal/serve for the request dataflow, in-flight
// batching and admission control.
//
// Observability loop: -trace-sample N traces one in every N executions even
// when clients never ask for a trace — sampled traces feed the q-error
// feedback table, annotate latency-histogram buckets with exemplar trace
// IDs, and (with -otel-file or -otel-endpoint) ship as OTel OTLP/JSON
// spans. -stats-refresh D re-collects statistics every D; -qerror-threshold
// Q additionally triggers a refresh whenever some node's median q-error
// over its last -qerror-window sampled executions exceeds Q (bounded below
// by -refresh-cooldown). Because plan-cache keys embed the statistics
// fingerprint, a refresh re-ranks plans on their next compile with no
// restart and no cache invalidation.
//
// -slowquery-ms N (0 = off) traces every execution and appends each one
// that takes N ms or longer as a JSON line to stderr — query, stage
// timings, plan, and the per-node trace with actual vs estimated rows.
//
// SIGTERM/SIGINT drain gracefully: the listener stops accepting, in-flight
// requests run to completion (bounded by -drain), stragglers are cancelled,
// and a final metrics snapshot is printed to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hypertree"
	"hypertree/internal/gen"
	"hypertree/internal/serve"
)

// options collects every flag.
type options struct {
	addr            string
	dbFile          string
	genRows         int
	genDomain       int
	genSeed         int64
	cacheSize       int
	cacheTTL        time.Duration
	maxInflight     int
	timeout         time.Duration
	maxTimeout      time.Duration
	stepBudget      int
	maxRows         int
	slowQueryMS     int
	portfile        string
	drain           time.Duration
	traceSample     int
	otelFile        string
	otelEndpoint    string
	statsRefresh    time.Duration
	qerrorThreshold float64
	qerrorWindow    int
	refreshCooldown time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (\":0\" picks an ephemeral port)")
	flag.StringVar(&o.dbFile, "db", "", "facts file to load (ground atoms, one or more per line)")
	flag.IntVar(&o.genRows, "gen-rows", 0, "generate the serving database with N rows per relation instead of -db")
	flag.IntVar(&o.genDomain, "gen-domain", 1000, "constant domain size for -gen-rows")
	flag.Int64Var(&o.genSeed, "gen-seed", 1, "rng seed for -gen-rows")
	flag.IntVar(&o.cacheSize, "cache-size", 0, "PlanCache capacity (0 = default)")
	flag.DurationVar(&o.cacheTTL, "cache-ttl", 0, "PlanCache entry time-to-live (0 = never expire)")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "max concurrently executing queries (0 = 2×GOMAXPROCS)")
	flag.DurationVar(&o.timeout, "timeout", 0, "default per-request deadline (0 = 5s)")
	flag.DurationVar(&o.maxTimeout, "max-timeout", 0, "clamp on client-supplied timeouts (0 = 60s)")
	flag.IntVar(&o.stepBudget, "step-budget", 0, "decomposition search step budget (0 = default)")
	flag.IntVar(&o.maxRows, "max-rows", 0, "max answer rows per response (0 = 1000)")
	flag.IntVar(&o.slowQueryMS, "slowquery-ms", 0, "log queries at/over this many milliseconds as JSON lines to stderr (0 = off)")
	flag.StringVar(&o.portfile, "portfile", "", "write the bound listen address to this file once serving")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "trace one in every N executions (0 = off); sampled traces feed q-error feedback, exemplars and span export")
	flag.StringVar(&o.otelFile, "otel-file", "", "append sampled traces as OTLP/JSON lines to this file")
	flag.StringVar(&o.otelEndpoint, "otel-endpoint", "", "POST sampled traces as OTLP/JSON to this OTLP/HTTP endpoint (e.g. http://localhost:4318/v1/traces)")
	flag.DurationVar(&o.statsRefresh, "stats-refresh", 0, "re-collect the statistics snapshot on this period (0 = off)")
	flag.Float64Var(&o.qerrorThreshold, "qerror-threshold", 0, "trigger a statistics refresh when a node's median q-error exceeds this (0 = off)")
	flag.IntVar(&o.qerrorWindow, "qerror-window", 0, "consecutive-execution window for the q-error trigger median (0 = default)")
	flag.DurationVar(&o.refreshCooldown, "refresh-cooldown", 0, "minimum spacing between feedback-triggered refreshes (0 = default)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, o, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hdserve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains: banners, slow-query lines
// and the final metrics go to stderr.
func run(ctx context.Context, o options, stderr io.Writer) error {
	db, desc, err := loadDatabase(o.dbFile, o.genRows, o.genDomain, o.genSeed)
	if err != nil {
		return err
	}

	exporter, err := buildExporter(o)
	if err != nil {
		return err
	}
	var opts []serve.Option
	if o.traceSample > 0 {
		opts = append(opts, serve.WithTraceSampling(o.traceSample))
	}
	if exporter != nil {
		opts = append(opts, serve.WithSpanExporter(exporter))
		defer exporter.Close()
	}

	t0 := time.Now()
	s, err := serve.New(serve.Config{
		DB:              db,
		CacheSize:       o.cacheSize,
		CacheTTL:        o.cacheTTL,
		MaxInflight:     o.maxInflight,
		DefaultTimeout:  o.timeout,
		MaxTimeout:      o.maxTimeout,
		StepBudget:      o.stepBudget,
		MaxAnswerRows:   o.maxRows,
		SlowQuery:       time.Duration(o.slowQueryMS) * time.Millisecond,
		SlowQueryLog:    stderr,
		StatsRefresh:    o.statsRefresh,
		QErrorThreshold: o.qerrorThreshold,
		QErrorWindow:    o.qerrorWindow,
		RefreshCooldown: o.refreshCooldown,
	}, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Fprintf(stderr, "hdserve: %s, statistics collected in %v\n", desc, time.Since(t0).Round(time.Millisecond))
	if o.traceSample > 0 {
		fmt.Fprintf(stderr, "hdserve: tracing 1 in %d executions\n", o.traceSample)
	}
	if o.statsRefresh > 0 || o.qerrorThreshold > 0 {
		fmt.Fprintf(stderr, "hdserve: stats refresh armed (interval %v, q-error threshold %g)\n", o.statsRefresh, o.qerrorThreshold)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.portfile != "" {
		if err := os.WriteFile(o.portfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "hdserve: serving on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintf(stderr, "hdserve: shutting down, draining (deadline %v)\n", o.drain)
	}

	// Drain: stop accepting, let in-flight requests finish (their execution
	// contexts derive from the Server lifecycle, not the listener), then
	// cancel whatever is still running.
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	if errors.Is(shutdownErr, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "hdserve: drain deadline hit, closing stragglers")
		srv.Close()
		shutdownErr = nil
	}
	s.Close()

	out, _ := json.Marshal(s.Metrics())
	fmt.Fprintf(stderr, "hdserve: final metrics %s\n", out)
	return shutdownErr
}

// buildExporter resolves the -otel-file / -otel-endpoint choice into a span
// exporter, or nil when span export is off.
func buildExporter(o options) (*hypertree.OTLPExporter, error) {
	switch {
	case o.otelFile != "" && o.otelEndpoint != "":
		return nil, fmt.Errorf("-otel-file and -otel-endpoint are mutually exclusive")
	case o.otelFile != "":
		return hypertree.NewOTLPFileExporter(o.otelFile, "hdserve")
	case o.otelEndpoint != "":
		return hypertree.NewOTLPHTTPExporter(o.otelEndpoint, "hdserve"), nil
	default:
		return nil, nil
	}
}

// loadDatabase resolves the -db / -gen-rows choice into a loaded database
// and a one-line description for the startup banner.
func loadDatabase(dbFile string, genRows, genDomain int, genSeed int64) (*hypertree.Database, string, error) {
	switch {
	case dbFile != "" && genRows > 0:
		return nil, "", fmt.Errorf("-db and -gen-rows are mutually exclusive")
	case dbFile != "":
		facts, err := os.ReadFile(dbFile)
		if err != nil {
			return nil, "", err
		}
		db := hypertree.NewDatabase()
		if err := db.ParseFacts(string(facts)); err != nil {
			return nil, "", err
		}
		return db, fmt.Sprintf("loaded %s (%d relations)", dbFile, len(db.RelationNames())), nil
	case genRows > 0:
		if genDomain < 1 {
			return nil, "", fmt.Errorf("-gen-domain must be ≥ 1")
		}
		db := gen.ServingDatabase(rand.New(rand.NewSource(genSeed)), genRows, genDomain)
		return db, fmt.Sprintf("generated serving database (%d rows × r1..r4, domain %d, seed %d)", genRows, genDomain, genSeed), nil
	default:
		return nil, "", fmt.Errorf("one of -db or -gen-rows is required")
	}
}
