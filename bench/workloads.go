package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypertree"
)

// A runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured phases together
	traced  bool
	out     string // directory for the facts file, server log, trace.json
}

// phase returns share of the measured time.
func (c runConfig) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, which two slow process starts cannot move. On the HTTP workloads
// setupsBefore of them come before the measured phases (the last of these is
// the server the phases measure) and the rest after: the box's speed shifts
// by several percent from one ten seconds to the next, and set-ups taken in
// one stretch would all sit on the same side of such a shift.
const (
	setupRepeats = 5
	setupsBefore = 3
)

// An httpWorkload is a traffic mix against a real hdserve process.
type httpWorkload struct {
	name         string
	rels         []string // binary relations
	rows, domain int
	pool         []template
	skew         float64
	clients      int           // closed-loop workers
	openRate     float64       // open-loop arrivals per second; 0: closed loop only
	ingestEvery  time.Duration // 0: no writes
	warmReps     int           // warm pass: every template this many times
}

// The four workloads that go through hdserve. Rates sit at about a quarter to
// a third of the seed commit's closed-loop capacity on the two-core reference
// box (serve_hot ≈ 2.2 k/s, serve_churn ≈ 420/s): the open loop measures
// latency under load, not a growing backlog, and low enough that queueing does
// not multiply the box's own speed drift into the tail (at 800/s serve_hot's
// p95 spread over ten seeds reached 0.21).
var httpWorkloads = []*httpWorkload{
	{
		name: "serve_hot", rels: serveRelations, rows: serveRows, domain: serveDomain,
		pool: lightTemplates(), skew: hotSkew, clients: maxClients, openRate: 500, warmReps: 100,
	},
	{
		name: "serve_churn", rels: serveRelations, rows: serveRows, domain: serveDomain,
		pool: servingTemplates, skew: churnSkew, clients: maxClients, openRate: 150, ingestEvery: time.Second, warmReps: 20,
	},
	{
		// One client: identical concurrent requests would coalesce.
		name: "exec_cyclic", rels: []string{"e1", "e2", "e3"}, rows: cyclicRows, domain: cyclicDomain,
		pool: []template{cyclicTemplate}, clients: 1, warmReps: 5,
	},
	{
		name: "exec_enum", rels: []string{"r1", "r2", "r3"}, rows: enumRows, domain: enumDomain,
		pool: []template{enumTemplate}, clients: 1, warmReps: 5,
	},
}

// serverCompileOptions is the one place the bench states which compile
// options hdserve resolves to at its default flags (serve.New plus
// cmd/hdserve's -kernel auto default); in-process plans use the same, and a
// self-check compares Plan.String() with the plan hdserve reports.
func serverCompileOptions(db *hypertree.Database) []hypertree.CompileOption {
	return []hypertree.CompileOption{
		hypertree.WithAutoStrategy(),
		hypertree.WithStepBudget(serverStepBudget),
		hypertree.WithJoinKernel(hypertree.JoinKernelAuto),
		hypertree.WithCostModel(hypertree.CollectStatsSampled(db, 0)),
	}
}

// serverStepBudget is the decomposition step budget hdserve defaults to.
const serverStepBudget = 2_000_000

// httpInputs is everything one run of an httpWorkload feeds the program.
type httpInputs struct {
	facts   string   // the database, in hdserve's -db syntax
	batches []string // serve_churn: one /admin/ingest payload per second
	draws   [][]int  // template ranks: one stream per closed-loop worker, then the open loop's
	sha     string
}

// maxIngests is how many ingest batches a run draws: enough for the longest
// run the benchmark contract allows (60 s at one per second), so the inputs
// do not depend on the run's length.
const maxIngests = 64

// inputs derives a run's inputs from the seed alone.
func (w *httpWorkload) inputs(seed int64) httpInputs {
	var in httpInputs
	rng := rand.New(rand.NewSource(seed))
	in.facts = factsText(rng, w.rels, w.rows, w.domain)
	if w.ingestEvery > 0 {
		in.batches = ingestBatches(rng, maxIngests)
	}
	z := newZipf(len(w.pool), w.skew)
	in.draws = make([][]int, w.clients+1)
	var drawText strings.Builder
	for i := range in.draws {
		r := rand.New(rand.NewSource(seed*1000 + int64(i) + 1))
		in.draws[i] = z.stratified(r, 1<<14)
		for _, d := range in.draws[i] {
			drawText.WriteByte(byte('0' + d))
		}
	}
	in.sha = inputSHA(in.facts, strings.Join(in.batches, "\x00"), templateTexts(w.pool), drawText.String())
	return in
}

// An httpRun is the state of one run of an httpWorkload.
type httpRun struct {
	w    *httpWorkload
	srv  *server
	rec  *recorder
	vars [][]string  // per template: templateVars
	exp  [][]*expect // [snapshot][template]

	ingSent, ingAcked atomic.Int64
	opID              atomic.Int64
	firstErr          atomic.Pointer[string]
}

// do performs one request and checks the reply against every database
// snapshot it may legitimately have seen: from the last ingest acknowledged
// before it was sent to the last ingest started before it was answered. A
// coalesced reply is its leader's answer, and hdserve's single-flight key is
// the canonical form alone: the leader may have loaded the snapshot before
// that acknowledged ingest swapped it, so one snapshot earlier is right too.
func (h *httpRun) do(o op) outcome {
	lo := h.ingAcked.Load()
	reply, err := h.srv.query(context.Background(), o.body)
	hi := h.ingSent.Load()
	out := outcome{op: o}
	if err != nil {
		out.err = err.Error()
		h.firstErr.CompareAndSwap(nil, &out.err)
		return out
	}
	out.coalesced, out.compileUS, out.execUS, out.trace = reply.Coalesced, reply.CompileUS, reply.ExecUS, reply.Trace
	if reply.Coalesced && lo > 0 {
		lo--
	}
	var mismatch error
	for s := lo; s <= hi && int(s) < len(h.exp); s++ {
		if mismatch = h.exp[s][o.tmpl].matches(reply, h.vars[o.tmpl]); mismatch == nil {
			out.ok = true
			return out
		}
	}
	out.wrong = true
	out.err = fmt.Sprintf("%s: %v", h.w.pool[o.tmpl].name, mismatch)
	h.firstErr.CompareAndSwap(nil, &out.err)
	return out
}

// mkOp prepares one request for template t.
func (h *httpRun) mkOp(t int, traced bool) op {
	id := h.opID.Add(1)
	return op{id: id, tmpl: t, body: queryBody(renameVars(h.w.pool[t].src, int(id)), traced)}
}

// warm is the warm pass that ends a set-up: every template warmReps times,
// one request at a time, so plans are compiled and cached and the encoding
// caches are filled. The count is fixed, so its time is part of setup_s.
func (h *httpRun) warm() []outcome {
	var outs []outcome
	for rep := 0; rep < h.w.warmReps; rep++ {
		for t := range h.w.pool {
			outs = append(outs, h.do(h.mkOp(t, false)))
		}
	}
	return outs
}

// An ingestAck is one acknowledged /admin/ingest.
type ingestAck struct {
	at      time.Time
	latency time.Duration
}

// ingester posts one batch every ingestEvery until stop is closed, the first
// after half a period: at the default run length the closed loop's windows
// are two periods long, so each holds exactly two ingests and none falls on
// a window's edge, where scheduling jitter would decide which window pays
// for the caches it empties.
func (h *httpRun) ingester(batches []string, stop <-chan struct{}) []ingestAck {
	var acks []ingestAck
	start := time.Now()
	for i := 0; i < len(batches); i++ {
		due := start.Add(h.w.ingestEvery/2 + time.Duration(i)*h.w.ingestEvery)
		select {
		case <-stop:
			return acks
		case <-time.After(time.Until(due)):
		}
		h.ingSent.Add(1)
		t0 := time.Now()
		if err := h.srv.ingest(context.Background(), batches[i]); err != nil {
			msg := err.Error()
			h.firstErr.CompareAndSwap(nil, &msg)
			return acks
		}
		h.ingAcked.Add(1)
		acks = append(acks, ingestAck{time.Now(), time.Since(t0)})
	}
	return acks
}

// runHTTP runs one httpWorkload once.
func runHTTP(w *httpWorkload, cfg runConfig) (*result, error) {
	res := &result{workload: w.name, seed: cfg.seed, traced: cfg.traced}
	h := &httpRun{w: w}
	if cfg.traced {
		h.rec = newRecorder()
	}

	// Inputs, all from the seed.
	t0 := time.Now()
	in := w.inputs(cfg.seed)
	facts, batches, draws := in.facts, in.batches, in.draws
	if w.ingestEvery > 0 {
		// One snapshot per ingest the run can make, and two to spare.
		batches = batches[:min(len(batches), int(cfg.seconds/w.ingestEvery.Seconds())+2)]
	}
	res.inputSHA = in.sha
	factsFile := filepath.Join(cfg.out, "facts.db")
	if err := os.WriteFile(factsFile, []byte(facts), 0o644); err != nil {
		return nil, err
	}
	res.notef("input generation %.3fs", time.Since(t0).Seconds())

	// Reference answers per snapshot, on the bench's own copy.
	t0 = time.Now()
	base := hypertree.NewDatabase() // the snapshot the server boots on
	if err := base.ParseFacts(facts); err != nil {
		return nil, err
	}
	baseOpts := serverCompileOptions(base)
	for _, t := range w.pool {
		h.vars = append(h.vars, templateVars(t.src))
	}
	db := base
	for s := 0; s <= len(batches); s++ {
		if s == 1 {
			db = base.Clone() // ingests go onto a copy; the probes below want the base
		}
		if s > 0 {
			if err := db.ParseFacts(batches[s-1]); err != nil {
				return nil, err
			}
		}
		row := make([]*expect, len(w.pool))
		for t, tm := range w.pool {
			e, err := oracle(db, tm.src)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", tm.name, err)
			}
			row[t] = e
		}
		h.exp = append(h.exp, row)
	}
	res.notef("reference answers (naive strategy, %d snapshots) %.3fs", len(h.exp), time.Since(t0).Seconds())

	t0 = time.Now()
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	res.notef("go build hdserve %.3fs", time.Since(t0).Seconds())

	// Set-up: process start → /healthz → end of the warm pass.
	var setups, boots []float64
	defer func() { h.srv.stop() }()
	setUp := func() error {
		h.srv.stop()
		h.ingSent.Store(0) // a fresh server is on the base snapshot
		h.ingAcked.Store(0)
		t0 := time.Now()
		var err error
		if h.srv, err = startServer(bin, factsFile, cfg.out); err != nil {
			return err
		}
		warm := h.warm()
		setups = append(setups, time.Since(t0).Seconds())
		boots = append(boots, h.srv.bootS)
		res.count(warm)
		return nil
	}
	for len(setups) < setupsBefore {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	// Self-check: the options this file says the server uses really are the
	// ones it uses, or in-process figures would describe another plan.
	for t, tm := range w.pool {
		reply, err := h.srv.query(context.Background(), h.mkOp(t, false).body)
		if err != nil {
			return nil, err
		}
		plan, err := hypertree.Compile(hypertree.MustParseQuery(tm.src), baseOpts...)
		if err != nil {
			return nil, err
		}
		if plan.String() != reply.Plan {
			res.wrong++
			res.notef("self-check FAILED on %s: in-process %s, hdserve %s", tm.name, plan, reply.Plan)
		}
	}

	m0, err := h.srv.metrics()
	if err != nil {
		return nil, err
	}

	// Phases. Untraced run: closed loop, then open loop where the workload
	// has one. Traced run: a shorter untraced closed loop (the base of the
	// tracing overhead), a traced closed loop, a traced open loop.
	closedU, closedT, open := cfg.phase(1), time.Duration(0), time.Duration(0)
	switch {
	case w.openRate > 0 && cfg.traced:
		closedU, closedT, open = cfg.phase(0.2), cfg.phase(0.2), cfg.phase(0.6)
	case w.openRate > 0:
		closedU, open = cfg.phase(0.5), cfg.phase(0.5)
	case cfg.traced:
		// The longer share is the untraced one: latency_p95_ms rests on it,
		// and at ≈ 22 ops/s it takes 12 s to give the 200 samples that leave
		// ten beyond p95.
		closedU, closedT = cfg.phase(0.6), cfg.phase(0.4)
	}

	stopIngest := make(chan struct{})
	var acks []ingestAck
	var ingestDone sync.WaitGroup
	if w.ingestEvery > 0 {
		ingestDone.Add(1)
		go func() {
			defer ingestDone.Done()
			acks = h.ingester(batches, stopIngest)
		}()
	}

	next := func(traced bool) func(wk, seq int) op {
		return func(wk, seq int) op { return h.mkOp(draws[wk][seq%len(draws[wk])], traced) }
	}
	cpuU := sampleCPU(h.srv.pid(), closedU)
	outsU, startU := closedLoop(w.clients, closedU, next(false), h.do)
	var outsT, outsO []outcome
	var startT time.Time
	if closedT > 0 {
		outsT, startT = closedLoop(w.clients, closedT, next(true), h.do)
	}
	if open > 0 {
		// Leave a tail with no arrivals so the last requests are answered
		// before the phase ends.
		tail := min(open/10, 500*time.Millisecond)
		n := int((open - tail).Seconds() * w.openRate)
		od := draws[w.clients]
		sched := fixedSchedule(n, w.openRate, func(i int) op { return h.mkOp(od[i%len(od)], cfg.traced) })
		outsO = openLoop(maxClients, sched, open, h.do)
	}
	close(stopIngest)
	ingestDone.Wait()
	m1, err := h.srv.metrics()
	if err != nil {
		return nil, err
	}
	rss, rssOK := peakRSSMB(h.srv.pid())
	for len(setups) < setupRepeats {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	res.set("setup_s", median(setups), len(setups))
	res.notef("set-ups (s): %.3f; of which boot: %.3f", setups, boots)

	res.count(outsU)
	res.count(outsT)
	res.count(outsO)
	if e := h.firstErr.Load(); e != nil {
		res.notef("first failure: %s", *e)
	}

	// End-to-end figures.
	thrU, cpuPerOp, okU := closedFigures(outsU, startU, closedU, cpuU())
	res.set("throughput_ops_s", thrU, okU)
	latSrc := outsU
	if open > 0 {
		latSrc = outsO
	}
	lat := latenciesMS(latSrc, nil)
	p50, _ := windowedPercentile(latSrc, 50)
	p95, perWindow := windowedPercentile(latSrc, 95)
	res.set("latency_p50_ms", p50, len(lat))
	res.set("latency_p95_ms", p95, len(lat))
	res.notef("latency_p95_ms rests on samples of %d, %d beyond it (of %d in the phase); highest percentile with 10 beyond: p%g",
		perWindow, samplesBeyond(perWindow, 95), len(lat), highestSupported(perWindow, 10, 50, 90, 95, 99, 99.9))
	res.notef("latency p50 by fifths of the phase: %s", fifths(lat))
	res.notef("latency p80/p90/p93/p95/p97/p99 of the phase: %.4g %.4g %.4g %.4g %.4g %.4g", percentile(lat, 80), percentile(lat, 90), percentile(lat, 93), percentile(lat, 95), percentile(lat, 97), percentile(lat, 99))
	if cpuPerOp > 0 {
		res.set("cpu_ms_per_op", cpuPerOp, okU)
	}
	if rssOK {
		res.set("peak_rss_mb", rss, 1)
	}
	if !cfg.traced {
		return res, nil
	}

	// Per-layer figures.
	res.set("fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	res.set("serve.boot_s", median(boots), len(boots))
	h.responseFieldMetrics(res, outsU)
	if d := float64(m1.Requests - m0.Requests); d > 0 {
		res.set("serve.coalesced_ratio", float64(m1.Coalesced-m0.Coalesced)/d, int(d))
		res.set("serve.rejected_ratio", float64(m1.Rejected-m0.Rejected)/d, int(d))
	}
	hits, misses := float64(m1.Cache.Hits-m0.Cache.Hits), float64(m1.Cache.Misses-m0.Cache.Misses)
	if hits+misses > 0 {
		res.set("serve.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
		res.set("plancache.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	res.set("plancache.evictions", float64(m1.Cache.Evictions-m0.Cache.Evictions), 1)
	if ch, cm := float64(m1.ColumnarHits-m0.ColumnarHits), float64(m1.ColumnarMisses-m0.ColumnarMisses); ch+cm > 0 {
		res.set("hdeval.enc_cache_hit_ratio", ch/(ch+cm), int(ch+cm))
	}
	res.set("serve.latency_p99_ms", percentile(lat, 99), len(lat))
	var lag []float64
	for _, o := range outsO {
		lag = append(lag, o.lateness.Seconds()*1e3)
	}
	res.set("serve.sched_lag_p99_ms", percentile(lag, 99), len(lag))
	for t, tm := range w.pool {
		if name := "serve.p50_ms." + tm.name; unitOf(name) != "" {
			l := latenciesMS(latSrc, func(o outcome) bool { return o.op.tmpl == t })
			res.set(name, percentile(l, 50), len(l))
		}
	}
	if len(acks) > 0 {
		var il []float64
		for _, a := range acks {
			il = append(il, a.latency.Seconds()*1e3)
		}
		res.set("serve.ingest_p50_ms", percentile(il, 50), len(il))
		post := latenciesMS(outsO, func(o outcome) bool {
			due := o.start.Add(-o.lateness)
			for _, a := range acks {
				if d := due.Sub(a.at); d >= 0 && d <= 250*time.Millisecond {
					return true
				}
			}
			return false
		})
		res.set("serve.post_ingest_p95_ms", percentile(post, 95), len(post))
	}
	if thrT, _, okT := closedFigures(outsT, startT, closedT, nil); thrT > 0 && thrU > 0 {
		res.set("obs.trace_overhead_ratio", thrT/thrU, okT)
	}
	h.spanMetrics(res, append(append([]outcome(nil), outsT...), outsO...))

	// In-process probes on this workload's inputs.
	probeCQ(res, h.rec, w.pool)
	probeStats(res, h.rec, base)
	if w.openRate == 0 {
		if err := probeExec(res, h.rec, base, w.pool[0], baseOpts, w.name == "exec_cyclic"); err != nil {
			return nil, err
		}
	}

	spans := h.rec.snapshot()
	spanGroupLines(res, groupSpans(spans))
	if err := writeTrace(filepath.Join(cfg.out, "trace.json"), w.name, cfg.seed, spans); err != nil {
		return nil, err
	}
	return res, nil
}

func okCount(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok {
			n++
		}
	}
	return n
}

// latenciesMS returns the latencies of the successful outcomes keep accepts
// (nil: all), in milliseconds.
func latenciesMS(outs []outcome, keep func(outcome) bool) []float64 {
	var l []float64
	for _, o := range outs {
		if o.ok && (keep == nil || keep(o)) {
			l = append(l, o.latency.Seconds()*1e3)
		}
	}
	return l
}

// responseFieldMetrics derives the serve-layer split from the compile_us and
// exec_us fields every reply carries: what is left of the client's latency is
// the serving layer's own cost (decode, single-flight, admission, render) plus
// the loopback round trip. Coalesced replies are left out — they report their
// leader's timings, not their own wait.
func (h *httpRun) responseFieldMetrics(res *result, outs []outcome) {
	var over, comp, exec []float64
	for _, o := range outs {
		if !o.ok || o.coalesced {
			continue
		}
		over = append(over, float64(o.latency.Microseconds()-o.compileUS-o.execUS))
		comp = append(comp, float64(o.compileUS))
		exec = append(exec, float64(o.execUS))
	}
	res.set("serve.overhead_us_p50", percentile(over, 50), len(over))
	res.set("serve.compile_us_p50", percentile(comp, 50), len(comp))
	res.set("serve.exec_us_p50", percentile(exec, 50), len(exec))
	res.set("serve.exec_us_p95", percentile(exec, 95), len(exec))
}

// spanMetrics records the traced requests as bench spans with the program's
// spans beneath them, and derives the evaluator-layer figures: per executed
// (not coalesced) request, the mean time in each span group.
func (h *httpRun) spanMetrics(res *result, outs []outcome) {
	var sum struct {
		ops                                      int
		exec, node, up, down, enum, unattributed float64 // µs
		nodeRows, answerRows                     float64
		execField                                float64
	}
	var qerr []float64
	for _, o := range outs {
		if !o.ok || len(o.trace) == 0 {
			continue
		}
		id := h.rec.add(-1, o.op.id, "request", "bench", o.start, o.start.Add(o.latency-o.lateness), -1)
		h.rec.attachProgramSpans(id, o.op.id, o.start, o.trace)
		if o.coalesced {
			continue
		}
		names := map[string]bool{}
		for _, s := range o.trace {
			names[s.Name] = true
		}
		sum.ops++
		sum.execField += float64(o.execUS)
		var exec, children float64
		for _, s := range o.trace {
			us := float64(s.Micros)
			if nameParent(s.Name, names) == "exec" {
				children += us
			}
			switch s.Name {
			case "exec":
				exec += us
			case "exec/node":
				sum.node += us
				sum.nodeRows += float64(max(s.Rows, 0))
			case "exec/semijoin/up":
				sum.up += us
			case "exec/semijoin/down":
				sum.down += us
			case "exec/enumerate":
				sum.enum += us
				sum.answerRows += float64(max(s.Rows, 0))
			}
			if s.QError > 0 {
				qerr = append(qerr, s.QError)
			}
		}
		sum.exec += exec
		sum.unattributed += max(exec-children, 0)
	}
	if sum.ops == 0 {
		return
	}
	n := float64(sum.ops)
	res.set("hdeval.node_ms", sum.node/n/1e3, sum.ops)
	res.set("hdeval.node_rows", sum.nodeRows/n, sum.ops)
	res.set("yannakakis.semijoin_up_ms", sum.up/n/1e3, sum.ops)
	res.set("yannakakis.semijoin_down_ms", sum.down/n/1e3, sum.ops)
	res.set("yannakakis.enumerate_ms", sum.enum/n/1e3, sum.ops)
	res.set("yannakakis.answer_rows", sum.answerRows/n, sum.ops)
	res.set("exec.unattributed_ms", sum.unattributed/n/1e3, sum.ops)
	if sum.execField > 0 {
		// The exec span (its children's self times plus the unattributed
		// rest) against the exec_us the reply reports for the same call.
		res.set("exec.accounted_ratio", sum.exec/sum.execField, sum.ops)
	}
	res.set("stats.qerror_p50", percentile(qerr, 50), len(qerr))
}
