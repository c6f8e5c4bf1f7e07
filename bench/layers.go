package main

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"time"

	"hypertree"
)

// In-process probes of single layers, run by the traced pass only. Each
// goes through the root hypertree package — operator-level functions of the
// internal packages are deliberately not probed, because the roadmap reshapes
// them and the bench must keep compiling — and each records bench spans.

// timed runs f, records it as a bench span and returns its duration.
func timed(rec *recorder, parent int, op int64, name string, f func()) (time.Duration, int) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return t1.Sub(t0), rec.add(parent, op, name, "bench", t0, t1, -1)
}

// programSpansOf converts a root trace's spans to the form attachProgramSpans
// places.
func programSpansOf(tr *hypertree.Trace) []programSpan {
	var out []programSpan
	for _, s := range tr.Spans() {
		p := programSpan{Name: s.Name, Micros: s.Micros, Rows: s.Rows}
		if s.EstRows > 0 && s.Rows >= 0 {
			p.QError = hypertree.QError(s.EstRows, s.Rows)
		}
		out = append(out, p)
	}
	return out
}

// probeCQ times internal/cq through its two public entry points, ParseQuery
// and CanonicalForm, over α-renamed texts of the pool.
func probeCQ(res *result, rec *recorder, pool []template) {
	const rounds = 2000
	var parse, canon []float64
	for i := 0; i < rounds; i++ {
		src := renameVars(pool[i%len(pool)].src, i)
		var q *hypertree.Query
		d, id := timed(rec, -1, int64(-1-i), "cq.parse", func() { q, _ = hypertree.ParseQuery(src) })
		parse = append(parse, float64(d.Nanoseconds())/1e3)
		if q == nil {
			continue
		}
		d, _ = timed(rec, id, int64(-1-i), "cq.canonical", func() { _ = hypertree.CanonicalForm(q) })
		canon = append(canon, float64(d.Nanoseconds())/1e3)
	}
	res.set("cq.parse_us", percentile(parse, 50), len(parse))
	res.set("cq.canonical_us", percentile(canon, 50), len(canon))
}

// probeStats times the sampled statistics collection hdserve runs at boot.
func probeStats(res *result, rec *recorder, db *hypertree.Database) {
	var ms []float64
	for i := 0; i < 5; i++ {
		d, _ := timed(rec, -1, 0, "stats.collect", func() { _ = hypertree.CollectStatsSampled(db, 0) })
		ms = append(ms, d.Seconds()*1e3)
	}
	res.set("stats.collect_ms", percentile(ms, 50), len(ms))
}

// probeExec times Plan.ExecuteBoolean and Plan.Execute in process, with the
// server's compile options, on a workload's own database, and counts their
// allocations; with sharded set it also measures the 4-shard path, which
// hdserve never calls — the evidence the roadmap asks for before deciding its
// fate.
func probeExec(res *result, rec *recorder, db *hypertree.Database, t template, opts []hypertree.CompileOption, sharded bool) error {
	const rounds = 8
	ctx := context.Background()
	plan, err := hypertree.Compile(hypertree.MustParseQuery(t.src), opts...)
	if err != nil {
		return err
	}
	if _, err := plan.Execute(ctx, db); err != nil { // fill the plan's encoding cache
		return err
	}
	var boolMS, enumMS []float64
	for i := 0; i < rounds; i++ {
		d, _ := timed(rec, -1, 0, "exec.boolean", func() { _, err = plan.ExecuteBoolean(ctx, db) })
		if err != nil {
			return err
		}
		boolMS = append(boolMS, d.Seconds()*1e3)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		tr := hypertree.NewTrace()
		t0 := time.Now()
		d, id := timed(rec, -1, int64(i), "exec.enumerate", func() {
			_, err = plan.Execute(hypertree.ContextWithTrace(ctx, tr), db)
		})
		if err != nil {
			return err
		}
		rec.attachProgramSpans(id, int64(i), t0, programSpansOf(tr))
		enumMS = append(enumMS, d.Seconds()*1e3)
	}
	runtime.ReadMemStats(&after)
	res.set("exec.boolean_ms_p50", percentile(boolMS, 50), rounds)
	res.set("exec.enumerate_ms_p50", percentile(enumMS, 50), rounds)
	res.set("exec.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/rounds/(1<<20), rounds)
	res.set("exec.allocs_per_op", float64(after.Mallocs-before.Mallocs)/rounds, rounds)
	if !sharded {
		return nil
	}

	var pdb *hypertree.PartitionedDB
	d, _ := timed(rec, -1, 0, "shard.partition", func() { pdb, err = hypertree.PartitionDatabase(db, 4, hypertree.HashPartition) })
	if err != nil {
		return err
	}
	res.set("shard.partition_ms", d.Seconds()*1e3, 1)
	var shardMS []float64
	for i := 0; i <= rounds; i++ {
		d, _ := timed(rec, -1, 0, "shard.exec_boolean", func() { _, err = plan.ExecuteBooleanSharded(ctx, pdb) })
		if err != nil {
			return err
		}
		if i > 0 { // the first call warms up
			shardMS = append(shardMS, d.Seconds()*1e3)
		}
	}
	p50 := percentile(shardMS, 50)
	res.set("shard.exec_boolean_ms_p50", p50, rounds)
	if p50 > 0 {
		res.set("shard.speedup", percentile(boolMS, 50)/p50, rounds)
	}
	return nil
}

// probeCompile compiles every shape once, fresh, through the root Compile
// with the plan_churn options, and records the race's outcome: a faster
// search that returns worse widths shows in the width sums.
func probeCompile(res *result, rec *recorder, shapes []template) error {
	var ms []float64
	winners := map[string]int{}
	var width int
	var fwidth float64
	for i, s := range shapes {
		q, err := hypertree.ParseQuery(s.src)
		if err != nil {
			return err
		}
		tr := hypertree.NewTrace()
		var plan *hypertree.Plan
		t0 := time.Now()
		d, id := timed(rec, -1, int64(i), "compile.cold", func() {
			plan, err = hypertree.CompileContext(hypertree.ContextWithTrace(context.Background(), tr), q, planOptions...)
		})
		if err != nil {
			return err
		}
		rec.attachProgramSpans(id, int64(i), t0, programSpansOf(tr))
		ms = append(ms, d.Seconds()*1e3)
		if err := validatePlan(plan); err != nil {
			res.wrong++
			res.notef("compile %s: %v", s.name, err)
		}
		width += plan.Width()
		fwidth += plan.FractionalWidth()
		if name, ok := strings.CutPrefix(plan.DecomposerName(), "auto("); ok {
			winners[strings.TrimSuffix(name, ")")]++
		}
	}
	res.set("compile.cold_ms_p50", percentile(ms, 50), len(ms))
	res.set("compile.cold_ms_p95", percentile(ms, 95), len(ms))
	res.set("compile.winner.hd", float64(winners["k-decomp"]), len(ms))
	res.set("compile.winner.ghd", float64(winners["ghd"]), len(ms))
	res.set("compile.winner.fhd", float64(winners["fhd"]), len(ms))
	res.set("compile.width_sum", float64(width), len(ms))
	res.set("compile.fwidth_sum", fwidth, len(ms))
	return nil
}

// probeEngines runs each width engine alone over the shapes through the root
// Decomposer interface, the exact one under the budget the race gives it.
func probeEngines(res *result, rec *recorder, shapes []template) error {
	engines := []struct {
		metric string
		d      hypertree.Decomposer
		budget int
	}{
		{"decomp.kdecomp_ms_sum", hypertree.KDecomposer(), engineStepBudget},
		{"ghd.decompose_ms_sum", hypertree.GreedyDecomposer(), 0},
		{"fhd.decompose_ms_sum", hypertree.FractionalDecomposer(), 0},
	}
	exhausted := 0
	for _, e := range engines {
		total := 0.0
		for i, s := range shapes {
			q, err := hypertree.ParseQuery(s.src)
			if err != nil {
				return err
			}
			h := hypertree.QueryHypergraph(q)
			d, _ := timed(rec, -1, int64(i), strings.TrimSuffix(e.metric, "_ms_sum"), func() {
				_, err = e.d.Decompose(context.Background(), h, hypertree.DecomposeRequest{StepBudget: e.budget})
			})
			total += d.Seconds() * 1e3
			if errors.Is(err, hypertree.ErrStepBudget) {
				exhausted++
			} else if err != nil {
				return err
			}
		}
		res.set(e.metric, total, len(shapes))
	}
	res.set("decomp.budget_exhausted", float64(exhausted), len(shapes))
	return nil
}

// engineStepBudget bounds the exact engine when probed alone: the budget the
// WithAutoStrategy race imposes on it when the caller sets none
// (hypertree.DefaultRaceExactBudget), which keeps the probe to seconds.
const engineStepBudget = hypertree.DefaultRaceExactBudget
