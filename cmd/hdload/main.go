// Command hdload is a closed-loop load generator for hdserve: W workers each
// drive one request at a time (send, wait, record, repeat) against POST
// /query, sampling query shapes from a zipf-weighted mix and α-renaming the
// variables of every request — so a cache hit on the server proves the
// PlanCache key really is rename-invariant, not string-equal.
//
// Usage:
//
//	hdload -addr host:port [-duration 5s] [-workers 1,8,32] [-skew 0,1.5]
//	       [-mix full,hot] [-timeout-ms 2000] [-max-rows 10] [-seed 1]
//	       [-json PATH]
//
// -workers, -skew and -mix are comma-separated sweep lists: hdload runs one
// closed-loop cell per (workers × skew × mix) combination and reports every
// cell. Before and after each cell it snapshots GET /admin/metrics.json, so
// cell's report carries the server-side deltas — cache hit rate, coalesced
// requests, executions — alongside the client-side throughput and latency
// quantiles (p50/p95/p99). The full report is JSON, written to -json or
// stdout.
//
// Mixes: "full" is the five-template gen.ServingPool (acyclic and cyclic
// shapes); "hot" is its two hottest templates only.
//
// -churn switches hdload into a database-churn exercise of the server's
// statistics feedback loop instead of the sweep: a baseline load phase, then
// POST /admin/ingest with -churn-facts skewed tuples into -churn-rel (the
// constants reuse the server's d0..dN generated domain, so the new tuples
// join), then a churn load phase whose sampled executions record inflated
// q-errors under the now-stale statistics fingerprint, a wait (bounded by
// -churn-wait) for the server's refresher to install fresh statistics, and
// a settle phase under the new fingerprint. The report carries the
// fingerprints, the refresh counters, and the pre- vs post-refresh median
// q-errors — a healthy loop shows the stale median well above baseline and
// the post-refresh median back down, with no server restart. Churn mode
// uses the first -workers, -skew and -mix values as its drive parameters;
// the server should run with -trace-sample (feedback comes from sampled
// traces) and either -qerror-threshold or -stats-refresh armed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/gen"
	"hypertree/internal/serve"
)

// cellReport is one (workers × skew × mix) closed-loop measurement.
type cellReport struct {
	// Phase labels the cell's role in -churn mode (baseline | churn |
	// settle); empty in a sweep run.
	Phase     string  `json:"phase,omitempty"`
	Workers   int     `json:"workers"`
	Skew      float64 `json:"skew"`
	Mix       string  `json:"mix"`
	DurationS float64 `json:"duration_s"`

	Requests   uint64  `json:"requests"`
	Errors     uint64  `json:"errors"`
	Throughput float64 `json:"throughput_qps"`

	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P95Micros  float64 `json:"p95_us"`
	P99Micros  float64 `json:"p99_us"`
	MaxMicros  uint64  `json:"max_us"`

	// Server-side deltas over the cell (from /admin/metrics.json).
	CacheHitRate float64 `json:"cache_hit_rate"`
	Coalesced    uint64  `json:"coalesced"`
	Executions   uint64  `json:"executions"`

	PerTemplate map[string]uint64 `json:"per_template"`
}

// churnReport is the -churn mode summary: how the statistics feedback loop
// reacted to a mid-run database mutation.
type churnReport struct {
	// Relation took the skewed ingest; FactsRequested were posted, of which
	// FactsAdded were new tuples.
	Relation       string `json:"relation"`
	FactsRequested int    `json:"facts_requested"`
	FactsAdded     int    `json:"facts_added"`
	// PreFingerprint identifies the statistics snapshot serving before the
	// ingest; PostFingerprint the one serving after the refresh.
	PreFingerprint  string `json:"pre_fingerprint"`
	PostFingerprint string `json:"post_fingerprint"`
	// Refreshes and RefreshesTriggered are the server-side counter deltas
	// across the churn (triggered counts only q-error-feedback refreshes).
	Refreshes          uint64 `json:"refreshes"`
	RefreshesTriggered uint64 `json:"refreshes_triggered"`
	// RefreshWaitS is how long hdload waited for the refresh to land;
	// RefreshTimedOut reports the -churn-wait budget lapsing first.
	RefreshWaitS    float64 `json:"refresh_wait_s"`
	RefreshTimedOut bool    `json:"refresh_timed_out"`
	// BaselineMedianQ is the worst per-node median q-error under the live
	// fingerprint before the ingest; PreRefreshMedianQ the worst under the
	// stale (pre-churn) fingerprint after the ingest skewed the data; and
	// PostRefreshMedianQ the worst under the freshly-installed fingerprint
	// once the settle phase ran. A working loop shows
	// PreRefreshMedianQ ≫ PostRefreshMedianQ.
	BaselineMedianQ    float64 `json:"baseline_median_q"`
	PreRefreshMedianQ  float64 `json:"pre_refresh_median_q"`
	PostRefreshMedianQ float64 `json:"post_refresh_median_q"`
}

// loadReport is the full hdload run: one cell per sweep combination, plus
// the churn summary when -churn ran.
type loadReport struct {
	Addr  string       `json:"addr"`
	Seed  int64        `json:"seed"`
	Cells []cellReport `json:"cells"`
	Churn *churnReport `json:"churn,omitempty"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "hdserve address (host:port), required")
		duration    = flag.Duration("duration", 5*time.Second, "closed-loop duration per sweep cell")
		workers     = flag.String("workers", "1,8,32", "comma-separated worker counts to sweep")
		skews       = flag.String("skew", "0,1.5", "comma-separated zipf skews to sweep")
		mixes       = flag.String("mix", "full,hot", "comma-separated query mixes to sweep (full | hot | cycle)")
		timeoutMS   = flag.Int("timeout-ms", 2000, "per-request timeout_ms sent to the server")
		maxRows     = flag.Int("max-rows", 10, "max_rows sent per request (keeps responses small)")
		seed        = flag.Int64("seed", 1, "base rng seed (worker w uses seed+w)")
		jsonPath    = flag.String("json", "", "write the JSON report to this file (default stdout)")
		churn       = flag.Bool("churn", false, "exercise the statistics feedback loop: load, ingest skewed facts, wait for the refresh, load again")
		churnRel    = flag.String("churn-rel", "r1", "relation the churn ingest skews")
		churnFacts  = flag.Int("churn-facts", 50000, "tuples the churn ingest posts")
		churnDomain = flag.Int("churn-domain", 1000, "constant domain for churn facts (match the server's -gen-domain)")
		churnWait   = flag.Duration("churn-wait", 30*time.Second, "max wait for the server's statistics refresh after the churn phase")
	)
	flag.Parse()
	cfg := runConfig{
		addr: *addr, duration: *duration, workersList: *workers, skewList: *skews,
		mixList: *mixes, timeoutMS: *timeoutMS, maxRows: *maxRows, seed: *seed,
		jsonPath: *jsonPath, churn: *churn, churnRel: *churnRel,
		churnFacts: *churnFacts, churnDomain: *churnDomain, churnWait: *churnWait,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hdload:", err)
		os.Exit(1)
	}
}

// runConfig carries every flag into run.
type runConfig struct {
	addr        string
	duration    time.Duration
	workersList string
	skewList    string
	mixList     string
	timeoutMS   int
	maxRows     int
	seed        int64
	jsonPath    string
	churn       bool
	churnRel    string
	churnFacts  int
	churnDomain int
	churnWait   time.Duration
}

func run(cfg runConfig) error {
	if cfg.addr == "" {
		return fmt.Errorf("-addr is required")
	}
	base := "http://" + strings.TrimPrefix(cfg.addr, "http://")
	workerCounts, err := parseInts(cfg.workersList)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	skews, err := parseFloats(cfg.skewList)
	if err != nil {
		return fmt.Errorf("-skew: %w", err)
	}
	mixNames := strings.Split(cfg.mixList, ",")

	client := &http.Client{Timeout: time.Duration(cfg.timeoutMS)*time.Millisecond + 5*time.Second}
	if err := waitHealthy(client, base, 10*time.Second); err != nil {
		return err
	}

	report := loadReport{Addr: cfg.addr, Seed: cfg.seed}
	if cfg.churn {
		if err := runChurn(client, base, cfg, workerCounts[0], skews[0], strings.TrimSpace(mixNames[0]), &report); err != nil {
			return err
		}
		return writeReport(report, cfg.jsonPath)
	}
	duration, timeoutMS, maxRows, seed := cfg.duration, cfg.timeoutMS, cfg.maxRows, cfg.seed
	for _, mixName := range mixNames {
		pool, err := mixPool(strings.TrimSpace(mixName))
		if err != nil {
			return err
		}
		for _, skew := range skews {
			mix, err := gen.NewQueryMix(pool, skew)
			if err != nil {
				return err
			}
			for _, w := range workerCounts {
				cell, err := runCell(client, base, mix, strings.TrimSpace(mixName), skew, w, duration, timeoutMS, maxRows, seed)
				if err != nil {
					return err
				}
				report.Cells = append(report.Cells, *cell)
				fmt.Fprintf(os.Stderr, "hdload: mix=%s skew=%g workers=%d  %.0f qps  p50=%.0fµs p95=%.0fµs p99=%.0fµs  hit=%.1f%% coalesced=%d errors=%d\n",
					cell.Mix, cell.Skew, cell.Workers, cell.Throughput,
					cell.P50Micros, cell.P95Micros, cell.P99Micros,
					100*cell.CacheHitRate, cell.Coalesced, cell.Errors)
			}
		}
	}

	return writeReport(report, cfg.jsonPath)
}

// writeReport marshals the report to -json or stdout.
func writeReport(report loadReport, jsonPath string) error {
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if jsonPath != "" {
		return os.WriteFile(jsonPath, out, 0o644)
	}
	_, err = os.Stdout.Write(out)
	return err
}

// runChurn drives the -churn exercise: baseline load → skewed ingest →
// churn load (sampled executions record q-errors against the now-stale
// statistics) → wait for the server's refresh → settle load under the fresh
// fingerprint. The three cells land in report.Cells tagged with their
// phase; the loop summary lands in report.Churn.
func runChurn(client *http.Client, base string, cfg runConfig, w int, skew float64, mixName string, report *loadReport) error {
	pool, err := mixPool(mixName)
	if err != nil {
		return err
	}
	mix, err := gen.NewQueryMix(pool, skew)
	if err != nil {
		return err
	}
	phase := func(name string) (*cellReport, error) {
		cell, err := runCell(client, base, mix, mixName, skew, w, cfg.duration, cfg.timeoutMS, cfg.maxRows, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", name, err)
		}
		cell.Phase = name
		report.Cells = append(report.Cells, *cell)
		fmt.Fprintf(os.Stderr, "hdload: churn %s  %.0f qps  p50=%.0fµs p99=%.0fµs errors=%d\n",
			name, cell.Throughput, cell.P50Micros, cell.P99Micros, cell.Errors)
		return cell, nil
	}

	m0, err := fetchMetrics(client, base)
	if err != nil {
		return err
	}
	cr := &churnReport{
		Relation:       cfg.churnRel,
		FactsRequested: cfg.churnFacts,
		PreFingerprint: m0.StatsFingerprint,
	}
	report.Churn = cr

	if _, err := phase("baseline"); err != nil {
		return err
	}
	q0, err := fetchQError(client, base)
	if err != nil {
		return err
	}
	cr.BaselineMedianQ = worstMedianUnder(q0.Entries, q0.LiveFingerprint)

	ing, err := postIngest(client, base, skewFacts(rand.New(rand.NewSource(cfg.seed)), cfg.churnRel, cfg.churnFacts, cfg.churnDomain))
	if err != nil {
		return err
	}
	cr.FactsAdded = ing.FactsAdded
	fmt.Fprintf(os.Stderr, "hdload: churn ingested %d new facts into %s (stats fingerprint still %s)\n",
		ing.FactsAdded, cfg.churnRel, ing.StatsFingerprint)

	if _, err := phase("churn"); err != nil {
		return err
	}
	q1, err := fetchQError(client, base)
	if err != nil {
		return err
	}
	cr.PreRefreshMedianQ = worstMedianUnder(q1.Entries, cr.PreFingerprint)

	// The q-error trigger needs no further queries — the refresher polls the
	// feedback table on its own clock — so just wait for the counter to move.
	waitStart := time.Now()
	m1 := m0
	for m1.StatsRefreshes == m0.StatsRefreshes && time.Since(waitStart) < cfg.churnWait {
		time.Sleep(200 * time.Millisecond)
		if m1, err = fetchMetrics(client, base); err != nil {
			return err
		}
	}
	cr.RefreshWaitS = time.Since(waitStart).Seconds()
	cr.RefreshTimedOut = m1.StatsRefreshes == m0.StatsRefreshes
	if cr.RefreshTimedOut {
		fmt.Fprintf(os.Stderr, "hdload: churn refresh wait timed out after %v (is -qerror-threshold or -stats-refresh armed on the server?)\n", cfg.churnWait)
	}

	if _, err := phase("settle"); err != nil {
		return err
	}
	m2, err := fetchMetrics(client, base)
	if err != nil {
		return err
	}
	q2, err := fetchQError(client, base)
	if err != nil {
		return err
	}
	cr.PostFingerprint = m2.StatsFingerprint
	cr.Refreshes = m2.StatsRefreshes - m0.StatsRefreshes
	cr.RefreshesTriggered = m2.StatsRefreshesTriggered - m0.StatsRefreshesTriggered
	cr.PostRefreshMedianQ = worstMedianUnder(q2.Entries, m2.StatsFingerprint)
	fmt.Fprintf(os.Stderr, "hdload: churn medians baseline=%.1f stale=%.1f fresh=%.1f  refreshes=%d (triggered %d)  %s → %s\n",
		cr.BaselineMedianQ, cr.PreRefreshMedianQ, cr.PostRefreshMedianQ,
		cr.Refreshes, cr.RefreshesTriggered, cr.PreFingerprint, cr.PostFingerprint)
	return nil
}

// skewFacts renders n random tuples over the server's generated d0..dN
// constant domain for one relation — reusing the live constants is what
// makes the new tuples join with the existing data instead of dangling.
func skewFacts(rng *rand.Rand, rel string, n, domain int) string {
	var b strings.Builder
	b.Grow(n * 16)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s(d%d, d%d).\n", rel, rng.Intn(domain), rng.Intn(domain))
	}
	return b.String()
}

// worstMedianUnder returns the largest per-node recent-median q-error
// recorded under the given statistics fingerprint.
func worstMedianUnder(entries []serve.QErrorEntryStatus, fingerprint string) float64 {
	worst := 0.0
	for _, e := range entries {
		if e.Fingerprint == fingerprint && e.MedianRecent > worst {
			worst = e.MedianRecent
		}
	}
	return worst
}

// postIngest posts facts to /admin/ingest and decodes the response.
func postIngest(client *http.Client, base, facts string) (*serve.IngestResponse, error) {
	body, _ := json.Marshal(serve.IngestRequest{Facts: facts})
	resp, err := client.Post(base+"/admin/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("/admin/ingest: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var ing serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		return nil, err
	}
	return &ing, nil
}

// fetchQError snapshots the server's /admin/qerror feedback table.
func fetchQError(client *http.Client, base string) (*serve.QErrorStatus, error) {
	resp, err := client.Get(base + "/admin/qerror")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/admin/qerror: status %d", resp.StatusCode)
	}
	var q serve.QErrorStatus
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		return nil, err
	}
	return &q, nil
}

// runCell drives one closed-loop cell: w workers, each looping
// sample → rename → POST → record until the deadline.
func runCell(client *http.Client, base string, mix *gen.QueryMix, mixName string, skew float64, w int,
	duration time.Duration, timeoutMS, maxRows int, seed int64) (*cellReport, error) {
	before, err := fetchMetrics(client, base)
	if err != nil {
		return nil, err
	}

	var (
		hist     serve.Histogram
		requests atomic.Uint64
		errCount atomic.Uint64
		perTplMu sync.Mutex
		perTpl   = map[string]uint64{}
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(worker)))
			salt := worker * 1_000_000
			local := map[string]uint64{}
			for time.Now().Before(deadline) {
				tpl := mix.Sample(rng)
				salt++
				src, err := gen.RenameQuery(tpl.Src, salt)
				if err != nil {
					errCount.Add(1)
					continue
				}
				t0 := time.Now()
				ok := postQuery(client, base, src, timeoutMS, maxRows)
				hist.Observe(time.Since(t0))
				requests.Add(1)
				local[tpl.Name]++
				if !ok {
					errCount.Add(1)
				}
			}
			perTplMu.Lock()
			for k, v := range local {
				perTpl[k] += v
			}
			perTplMu.Unlock()
		}(i)
	}
	wg.Wait()

	after, err := fetchMetrics(client, base)
	if err != nil {
		return nil, err
	}
	snap := hist.Snapshot()
	cell := &cellReport{
		Workers:     w,
		Skew:        skew,
		Mix:         mixName,
		DurationS:   duration.Seconds(),
		Requests:    requests.Load(),
		Errors:      errCount.Load(),
		Throughput:  float64(requests.Load()) / duration.Seconds(),
		MeanMicros:  snap.MeanMicros,
		P50Micros:   snap.P50Micros,
		P95Micros:   snap.P95Micros,
		P99Micros:   snap.P99Micros,
		MaxMicros:   snap.MaxMicros,
		Coalesced:   after.Coalesced - before.Coalesced,
		Executions:  after.Executions - before.Executions,
		PerTemplate: perTpl,
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	if hits+misses > 0 {
		cell.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return cell, nil
}

// postQuery fires one /query request; true means HTTP 200.
func postQuery(client *http.Client, base, src string, timeoutMS, maxRows int) bool {
	body, _ := json.Marshal(serve.QueryRequest{Query: src, TimeoutMillis: timeoutMS, MaxRows: maxRows})
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fetchMetrics snapshots the server's /admin/metrics.json (the Prometheus
// exposition lives on /admin/metrics; hdload wants the typed snapshot).
func fetchMetrics(client *http.Client, base string) (*serve.Metrics, error) {
	resp, err := client.Get(base + "/admin/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/admin/metrics.json: status %d", resp.StatusCode)
	}
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// waitHealthy polls /healthz until the server answers or the budget lapses.
func waitHealthy(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %v: %v", base, budget, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// mixPool resolves a mix name to its template pool.
func mixPool(name string) ([]gen.QueryTemplate, error) {
	pool := gen.ServingPool()
	switch name {
	case "full":
		return pool, nil
	case "hot":
		return pool[:2], nil
	case "cycle":
		// cycle4 alone: the planner serves it as two join bags whose
		// estimates come from their relations' cardinalities and distinct
		// counts, so the one holding a churned relation is off by that
		// relation's growth while the other is not — a clean q-error spike
		// over a flat baseline (make serve-smoke reads a median of 5.4 →
		// 260 → 5.4 across one triggered refresh), the -churn mode's mix of
		// choice.
		return pool[3:4], nil
	default:
		return nil, fmt.Errorf("unknown mix %q (valid: full | hot | cycle)", name)
	}
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloats parses a comma-separated list of non-negative floats.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad skew %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}
