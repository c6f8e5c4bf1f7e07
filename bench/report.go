package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// A metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics a user of the system would see; every workload
// reports all of them from its untraced pass. BENCHMARK.json carries the same
// list with bounds (a test keeps the two equal). Two of the issue's seven are
// not here. fail_ratio is 0 on a healthy run and a gate may never be 0: it is
// reported per layer and through the attempted and failed counts.
// latency_p95_ms is measured and printed by every pass but gates nothing: on
// the shared two-vCPU reference box serve_hot's tail beyond p90 is set by the
// host's micro-stalls (spread 0.16–0.21 over ten seeds in five calibrations,
// against 0.05–0.09 for p80–p90), which no bound the contract allows (≤ 0.25)
// covers twice — so by the issue's own rule it is demoted to per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of single layers; every workload reports all of
// them from its traced pass, 0 where the layer does no work on that workload
// (README.md says which workload fills which).
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"latency_p95_ms", "ms"},
	{"cq.parse_us", "us"},
	{"cq.canonical_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.hit_us", "us"},
	{"plancache.miss_ms", "ms"},
	{"plancache.evictions", "count"},
	{"compile.cold_ms_p50", "ms"},
	{"compile.cold_ms_p95", "ms"},
	{"compile.winner.hd", "count"},
	{"compile.winner.ghd", "count"},
	{"compile.winner.fhd", "count"},
	{"compile.width_sum", "count"},
	{"compile.fwidth_sum", "count"},
	{"decomp.kdecomp_ms_sum", "ms"},
	{"ghd.decompose_ms_sum", "ms"},
	{"fhd.decompose_ms_sum", "ms"},
	{"decomp.budget_exhausted", "count"},
	{"stats.collect_ms", "ms"},
	{"stats.qerror_p50", "ratio"},
	{"serve.boot_s", "s"},
	{"serve.overhead_us_p50", "us"},
	{"serve.compile_us_p50", "us"},
	{"serve.exec_us_p50", "us"},
	{"serve.exec_us_p95", "us"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.rejected_ratio", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.sched_lag_p99_ms", "ms"},
	{"serve.p50_ms.path3", "ms"},
	{"serve.p50_ms.path2-enum", "ms"},
	{"serve.p50_ms.triangle", "ms"},
	{"serve.p50_ms.cycle4", "ms"},
	{"serve.p50_ms.star3", "ms"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.post_ingest_p95_ms", "ms"},
	{"hdeval.node_ms", "ms"},
	{"hdeval.node_rows", "count"},
	{"hdeval.enc_cache_hit_ratio", "ratio"},
	{"yannakakis.semijoin_up_ms", "ms"},
	{"yannakakis.semijoin_down_ms", "ms"},
	{"yannakakis.enumerate_ms", "ms"},
	{"yannakakis.answer_rows", "count"},
	{"exec.unattributed_ms", "ms"},
	{"exec.accounted_ratio", "ratio"},
	{"exec.boolean_ms_p50", "ms"},
	{"exec.enumerate_ms_p50", "ms"},
	{"exec.alloc_mb_per_op", "MB"},
	{"exec.allocs_per_op", "count"},
	{"shard.partition_ms", "ms"},
	{"shard.exec_boolean_ms_p50", "ms"},
	{"shard.speedup", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// A metric is one measured value with the sample count behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// A result is what one run of one workload produced.
type result struct {
	workload  string
	seed      int64
	traced    bool
	inputSHA  string
	attempted int
	failed    int
	wrong     int // failed ops whose answer the reference rejected
	metrics   []metric
	notes     []string // untimed costs and other remarks, printed only
}

// unitOf returns the unit of a metric of BENCHMARK.json, "" for another name.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// set records a metric, replacing an earlier value of the same name.
func (r *result) set(name string, value float64, n int) {
	unit := unitOf(name)
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, value, unit, n}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// get returns a recorded metric's value, 0 when absent.
func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds a phase's outcomes into the attempted, failed and wrong totals.
func (r *result) count(outs []outcome) {
	for _, o := range outs {
		r.attempted++
		if !o.ok {
			r.failed++
		}
		if o.wrong {
			r.wrong++
		}
	}
}

// jsonMetric is one value of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the record the acceptance
// driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// line builds the result line: every end-to-end metric of an untraced run,
// every per-layer metric of a traced one.
func (r *result) line() resultLine {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{r.get(d.name), d.unit}
	}
	return out
}

// print writes one line per metric — workload metric value unit n=samples —
// then the notes, then the result line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "%s input_sha256 %s seed=%d\n", r.workload, r.inputSHA, r.seed)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.workload, m.name, m.value, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s # %s\n", r.workload, n)
	}
	data, err := json.Marshal(r.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// spanGroupLines renders the traced pass's span groups, whatever names occur.
func spanGroupLines(r *result, groups []spanGroup) {
	for _, g := range groups {
		r.notef("span %s (%s): n=%d total=%.3fms self=%.3fms rows=%d",
			g.Name, g.Source, g.Count, float64(g.TotalUS)/1e3, float64(g.SelfUS)/1e3, g.Rows)
	}
}
