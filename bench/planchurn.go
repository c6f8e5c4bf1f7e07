package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hypertree"
)

// plan_churn: the planning layers alone, in process, with no data. One
// PlanCache at the server's default capacity is fed a working set larger than
// it, so decomposition search (internal/decomp, internal/ghd, internal/fhd
// with internal/lp, and the race between them) and cache-key canonicalisation
// do all the work.

// planCacheCapacity is hdserve's default -cache-size.
const planCacheCapacity = hypertree.DefaultPlanCacheSize

// planOptions are the options of one plan_churn op (stateless, so shared).
var planOptions = []hypertree.CompileOption{hypertree.WithAutoStrategy(), hypertree.WithStepBudget(serverStepBudget)}

// A planRun is the state of one plan_churn run.
type planRun struct {
	keys  []template
	draws []int
	cache *hypertree.PlanCache
	rec   *recorder
	last  []*hypertree.Plan // per key: the plan last served
	valid []bool            // per key: whether validate has checked it
	seq   int64

	attempted, failed, wrong int
	firstErr                 string
}

// setup builds the pool, a fresh cache and makes the warm pass: every key
// once through the cache.
func (p *planRun) setup() (shapes []template) {
	shapes = planShapes()
	p.keys = planKeys(shapes)
	p.cache = hypertree.NewPlanCache(planCacheCapacity)
	p.last = make([]*hypertree.Plan, len(p.keys))
	p.valid = make([]bool, len(p.keys))
	for i := range p.keys {
		p.do(warmIDBase+int64(i), i, false)
	}
	return shapes
}

// do performs one op — parse an α-renamed text of key k, compile it through
// the cache — and returns how long the compile call and the whole op took.
// The plan is kept as its key's latest for validate.
func (p *planRun) do(id int64, k int, traced bool) (compile, total time.Duration) {
	p.attempted++
	src := renameVars(p.keys[k].src, int(id))
	ctx := context.Background()
	var tr *hypertree.Trace
	if traced {
		tr = hypertree.NewTrace()
		ctx = hypertree.ContextWithTrace(ctx, tr)
	}
	t0 := time.Now()
	q, err := hypertree.ParseQuery(src)
	t1 := time.Now()
	var plan *hypertree.Plan
	if err == nil {
		plan, err = p.cache.Compile(ctx, q, planOptions...)
	}
	t2 := time.Now()
	if traced {
		root := p.rec.add(-1, id, "op", "bench", t0, t2, -1)
		p.rec.add(root, id, "cq.parse", "bench", t0, t1, -1)
		c := p.rec.add(root, id, "plancache.compile", "bench", t1, t2, -1)
		p.rec.attachProgramSpans(c, id, t1, programSpansOf(tr))
	}
	if err != nil {
		p.fail(k, err)
	} else if plan != p.last[k] {
		p.last[k], p.valid[k] = plan, false
	}
	return t2.Sub(t1), t2.Sub(t0)
}

// fail counts one failed op on key k.
func (p *planRun) fail(k int, err error) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = p.keys[k].name + ": " + err.Error()
	}
}

// validate checks every key's latest plan that has not been checked yet. It
// runs between the timed stretches — after a set-up, after a loop — so the
// check is in no gated figure, and it keeps one plan per key alive, so memory
// does not grow with the run's length. Compiling a key is deterministic, so
// the plans a key was served in between have the decomposition checked here.
func (p *planRun) validate() {
	for k, plan := range p.last {
		if plan == nil || p.valid[k] {
			continue
		}
		p.valid[k] = true
		if err := validatePlan(plan); err != nil {
			p.wrong++
			p.fail(k, err)
		}
	}
}

// planDraws derives the key ranks the measured loop cycles through, and the
// fingerprint of the whole input, from the seed.
func planDraws(seed int64, keys []template) ([]int, string) {
	z := newZipf(len(keys), planSkew)
	r := rand.New(rand.NewSource(seed*1000 + 1))
	draws := make([]int, 1<<16)
	var drawText strings.Builder
	for i := range draws {
		draws[i] = z.sample(r)
		drawText.WriteByte(byte(draws[i]))
		drawText.WriteByte(byte(draws[i] >> 8))
	}
	return draws, inputSHA(templateTexts(keys), drawText.String())
}

// A loopResult is what one closed-loop phase of plan_churn measured.
type loopResult struct {
	lat          []float64 // per op, ms
	hitUS        []float64 // compile-call latency of cache hits, when classified
	missMS       []float64 // and of misses
	opsPerSec    float64   // median over the phase's windows
	cpuMSPerOp   float64   // median over the phase's windows; 0 without /proc
	opsInWindows int
}

// loop is the closed loop of one client for d, with the windows, throughput
// and CPU per op of every other closed loop (windowTally, sampleCPU). It does
// not go through closedLoop itself: that keeps an outcome of 160 bytes per op,
// which at this workload's 14 000 ops a second is ≈ 45 MB by the end of a
// run — in the process whose peak_rss_mb (≈ 40 MB) and CPU are the gated
// figures. Here an op leaves 8 bytes, its latency.
func (p *planRun) loop(d time.Duration, traced, classify bool) loopResult {
	r := loopResult{lat: make([]float64, 0, 1<<20)}
	misses := p.cache.Metrics().Misses
	cpu := sampleCPU(0, d)
	tally := windowTally{t0: time.Now(), d: d}
	for deadline := tally.t0.Add(d); time.Now().Before(deadline); {
		p.seq++
		failed := p.failed
		compile, total := p.do(p.seq, p.draws[int(p.seq)%len(p.draws)], traced)
		if p.failed == failed {
			tally.add(time.Now())
		}
		r.lat = append(r.lat, total.Seconds()*1e3)
		if classify {
			if m := p.cache.Metrics().Misses; m != misses {
				misses = m
				r.missMS = append(r.missMS, compile.Seconds()*1e3)
			} else {
				r.hitUS = append(r.hitUS, float64(compile.Nanoseconds())/1e3)
			}
		}
	}
	r.opsPerSec, r.cpuMSPerOp, r.opsInWindows = tally.figures(cpu())
	p.validate()
	return r
}

// runPlanChurn runs plan_churn once.
func runPlanChurn(cfg runConfig) (*result, error) {
	res := &result{workload: "plan_churn", seed: cfg.seed, traced: cfg.traced}
	p := &planRun{}
	if cfg.traced {
		p.rec = newRecorder()
	}

	var setups []float64
	var shapes []template
	// All before the loops: in this process a set-up that follows them finds
	// a larger heap, collects less often and is a fifth faster — another
	// measurement, not another sample of the same one.
	for len(setups) < setupRepeats {
		t0 := time.Now()
		shapes = p.setup()
		setups = append(setups, time.Since(t0).Seconds())
		p.validate()
		// Collect the previous set-up's cache before the next allocates, so
		// that peak memory is the steady state's and not an accident of when
		// the collector last ran.
		runtime.GC()
	}
	res.set("setup_s", median(setups), len(setups))
	res.notef("set-ups (s): %.3f", setups)

	p.draws, res.inputSHA = planDraws(cfg.seed, p.keys)
	distinct := map[string]bool{}
	for _, k := range p.keys {
		distinct[hypertree.CanonicalForm(hypertree.MustParseQuery(k.src))] = true
	}
	res.notef("%d shapes, %d keys, %d distinct canonical forms, cache capacity %d", len(shapes), len(p.keys), len(distinct), planCacheCapacity)

	closedU, closedT := cfg.phase(1), time.Duration(0)
	if cfg.traced {
		closedU, closedT = cfg.phase(0.4), cfg.phase(0.6)
	}
	u := p.loop(closedU, false, false)
	var t loopResult
	m0 := p.cache.Metrics()
	if closedT > 0 {
		t = p.loop(closedT, true, true)
	}
	m1 := p.cache.Metrics()
	rss, rssOK := peakRSSMB(0)

	res.attempted, res.failed, res.wrong = p.attempted, p.failed, p.wrong
	if p.firstErr != "" {
		res.notef("first failure: %s", p.firstErr)
	}
	res.set("throughput_ops_s", u.opsPerSec, u.opsInWindows)
	res.set("latency_p50_ms", percentile(u.lat, 50), len(u.lat))
	res.set("latency_p95_ms", percentile(u.lat, 95), len(u.lat))
	res.notef("latency_p95_ms rests on %d samples, %d beyond it", len(u.lat), samplesBeyond(len(u.lat), 95))
	res.notef("latency p50 by fifths of the phase: %s", fifths(u.lat))
	if u.cpuMSPerOp > 0 {
		res.set("cpu_ms_per_op", u.cpuMSPerOp, u.opsInWindows)
	}
	if rssOK {
		res.set("peak_rss_mb", rss, 1)
	}
	if !cfg.traced {
		return res, nil
	}

	res.set("fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	if d := float64(m1.Hits - m0.Hits + m1.Misses - m0.Misses); d > 0 {
		res.set("plancache.hit_ratio", float64(m1.Hits-m0.Hits)/d, int(d))
	}
	res.set("plancache.hit_us", percentile(t.hitUS, 50), len(t.hitUS))
	res.set("plancache.miss_ms", percentile(t.missMS, 50), len(t.missMS))
	res.set("plancache.evictions", float64(m1.Evictions-m0.Evictions), 1)
	if t.opsPerSec > 0 && u.opsPerSec > 0 {
		res.set("obs.trace_overhead_ratio", t.opsPerSec/u.opsPerSec, t.opsInWindows)
	}
	probeCQ(res, p.rec, p.keys)
	if err := probeCompile(res, p.rec, shapes); err != nil {
		return nil, err
	}
	if err := probeEngines(res, p.rec, shapes); err != nil {
		return nil, err
	}
	spans := p.rec.snapshot()
	spanGroupLines(res, groupSpans(spans))
	if err := writeTrace(filepath.Join(cfg.out, "trace.json"), "plan_churn", cfg.seed, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// warmIDBase offsets the op IDs (and rename salts) of the warm pass away from
// those of the measured phases.
const warmIDBase = 1 << 40
