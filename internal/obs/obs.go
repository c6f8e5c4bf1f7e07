// Package obs is the execution tracer behind EXPLAIN ANALYZE, the serving
// metrics and the slow-query log: a low-overhead, concurrency-safe span
// collector threaded through every layer of a query's life.
//
// A Trace accumulates Spans — one per traced stage: compile, decomposition,
// each race entrant, per-node λ-join materialisation, semijoin passes,
// enumeration. Each span records wall time, step
// counts and the actual output cardinality alongside the planner's estimate,
// which is what makes cost-model errors observable (Plan.ExplainAnalyze
// renders the comparison from the trace its caller hands it; the OTLP export and the serving layer's trace
// summaries carry each node's q-error).
//
// The tracer is built to cost nothing when off and almost nothing when on:
//
//   - Every method on *Trace and *Span is nil-safe, so instrumented code
//     calls them unconditionally; with no trace attached a span is a nil
//     pointer and every call is an inlineable nil check — no clock reads, no
//     allocation, no locks.
//   - A live span is owned by the goroutine that started it until End, which
//     appends a value copy to the trace under its mutex. Readers (Spans,
//     Render) therefore only ever observe completed spans — there is no
//     torn-read window, and tracing parallel per-node materialisation
//     needs no coordination beyond each span's own End.
//   - AddSteps is atomic, so several goroutines may bump one span's step
//     counter concurrently; all AddSteps calls must still happen-before
//     End, which every structured fork/join in this codebase provides via
//     its WaitGroup.
//
// Traces travel by context (NewContext / FromContext) and only by context:
// no plan holds a trace, so the serving layer injects a per-request trace
// without touching its shared compile options, which keeps PlanCache keys —
// and therefore cache hit rates — identical with tracing on or off.
package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, forming the trace taxonomy. The hierarchy is by convention
// ("a/b" is a sub-stage of "a"); matching on these constants is how
// renderers and tests pick stages out of a trace.
const (
	// SpanCompile covers one whole Compile: analysis, decomposition search,
	// validation, cost annotation, evaluator construction.
	SpanCompile = "compile"
	// SpanDecompose covers the decomposition search of a single chosen
	// engine (no race); Label names the decomposer.
	SpanDecompose = "compile/decompose"
	// SpanRace covers one candidate of the WithAutoStrategy race; Label
	// names the engine and reports its width/cost (or the cap a capped exact
	// entrant proved hw above) and win/lose verdict. The fhd and ghd
	// candidates come from one walk and share its timing.
	SpanRace = "compile/race"
	// SpanExec covers one whole execution, open until its answer cursor
	// closes; Rows is the answer cardinality (1 or 0 for ExecuteBoolean).
	SpanExec = "exec"
	// SpanBind covers fetching one λ relation in executable form, before
	// the node's join starts, through the executing database's encoding
	// cache (relation.Database.Encoded): the label names the relation and
	// says hit (nothing touched), miss (atom selected into columns and
	// sorted) or empty (its relation is absent or a constant is missing
	// from the dictionary: no rows, cache untouched). Rows is the fetched
	// relation's cardinality.
	SpanBind = "exec/bind"
	// SpanNode covers one decomposition node's λ-join materialisation,
	// after its binds: Node identifies the node,
	// Steps counts binary joins, Rows the materialised χ-table cardinality,
	// EstRows the planner's estimate for the same table.
	SpanNode = "exec/node"
	// SpanSemijoinUp covers the top-down descent that decides which rows
	// extend to an answer — the up pass computed with counts, entering only
	// the child runs a root row reaches. Steps counts the child runs looked
	// up, summed over the edges. On a Boolean execution — the cursor with
	// an empty head — the descent stops at the first witness, Rows is 1
	// when the query holds and 0 otherwise, and no SpanEnumerate follows.
	// No execution runs a down pass: the walk skips the rows one would
	// delete.
	SpanSemijoinUp = "exec/semijoin/up"
	// SpanEnumerate covers the answer cursor's top-down trie walk, from
	// the count until the cursor closes; Steps counts the subtrees
	// folded because the head drops one of their variables, Rows is the
	// answer count (Count), however many rows the caller walked.
	SpanEnumerate = "exec/enumerate"
)

// A Trace collects the spans of one traced query (or of several executions,
// if the caller reuses it). Create with New, attach to a context with
// NewContext, read with Spans or Render. All methods are safe for concurrent
// use and nil-safe: a nil *Trace swallows everything at the cost of a
// pointer test.
type Trace struct {
	start time.Time
	id    [16]byte

	mu    sync.Mutex
	spans []Span
}

// New returns an empty trace; span start offsets count from this moment.
// Every trace is born with a random 128-bit trace ID (see TraceID), which is
// what lets exemplars and exported OTel spans refer back to it.
func New() *Trace {
	t := &Trace{start: time.Now()}
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		t.id[i] = byte(hi >> (8 * (7 - i)))
		t.id[8+i] = byte(lo >> (8 * (7 - i)))
	}
	return t
}

// TraceID returns the trace's 128-bit identity as 32 lowercase hex digits —
// the W3C trace-context / OTel trace_id format. Empty on a nil trace.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return hex.EncodeToString(t.id[:])
}

// StartTime returns the wall-clock instant the trace was created (the zero
// point of every span's StartMicros offset); the zero time on a nil trace.
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StartSpan opens a span named name. The returned span is exclusively owned
// by the caller until End publishes it to the trace; on a nil trace it
// returns nil, which every span method accepts.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &Span{
		Name:        name,
		Node:        -1,
		Rows:        -1,
		StartMicros: now.Sub(t.start).Microseconds(),
		t:           t,
		begun:       now,
	}
}

// Spans returns a point-in-time copy of the completed spans, in completion
// order. In-progress spans are invisible until their End.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		out[i].t = nil
	}
	return out
}

// Len returns the number of completed spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Render formats the completed spans as an aligned report, sorted by start
// offset: name, label, node identity, wall time, steps, actual vs
// estimated rows and the per-span q-error. An empty trace renders a single
// explanatory line.
func (t *Trace) Render() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "trace: no spans recorded\n"
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartMicros < spans[j].StartMicros })
	var b strings.Builder
	b.WriteString("trace:\n")
	for _, s := range spans {
		fmt.Fprintf(&b, "  %-22s %8dµs", s.Name, s.Micros)
		if s.Node >= 0 {
			fmt.Fprintf(&b, " node=%d", s.Node)
		}
		if s.Steps > 0 {
			fmt.Fprintf(&b, " steps=%d", s.Steps)
		}
		if s.Rows >= 0 {
			fmt.Fprintf(&b, " rows=%d", s.Rows)
		}
		if s.EstRows > 0 {
			fmt.Fprintf(&b, " est=%.4g", s.EstRows)
			if s.Rows >= 0 {
				fmt.Fprintf(&b, " q-err=%.3g", QError(s.EstRows, s.Rows))
			}
		}
		if s.Kernel != "" {
			fmt.Fprintf(&b, " kernel=%s", s.Kernel)
		}
		if s.Label != "" {
			fmt.Fprintf(&b, "  %s", s.Label)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// A Span is one traced stage. The exported fields are the record readers
// consume (via Trace.Spans); a live span's fields are written through the
// setters only, and the span is published to its trace by End.
type Span struct {
	// Name is the stage, one of the Span* constants.
	Name string
	// Label carries free-form stage detail (decomposer name, node χ/λ
	// rendering, win/lose verdict).
	Label string
	// Node is the preorder index of the decomposition node this span
	// belongs to over the evaluator's completed tree, or -1.
	Node int
	// StartMicros is the span's start offset from the trace's creation.
	StartMicros int64
	// Micros is the span's wall-clock duration.
	Micros int64
	// Steps counts the stage's unit operations (binary joins, semijoins).
	Steps int64
	// Rows is the actual output cardinality, or -1 when the stage has none.
	Rows int64
	// EstRows is the planner's cardinality estimate for the same output, 0
	// when the plan carries no statistics.
	EstRows float64
	// Kernel names how the span's node table was materialised ("scan" or
	// "leapfrog" on node spans), empty elsewhere.
	Kernel string

	t     *Trace
	begun time.Time
}

// SetLabel attaches free-form detail to the span.
func (s *Span) SetLabel(l string) {
	if s != nil {
		s.Label = l
	}
}

// SetNode records the decomposition-node identity (preorder index over the
// evaluator's completed tree).
func (s *Span) SetNode(id int) {
	if s != nil {
		s.Node = id
	}
}

// SetKernel records how the span's node table was materialised.
func (s *Span) SetKernel(k string) {
	if s != nil {
		s.Kernel = k
	}
}

// SetRows records the actual output cardinality.
func (s *Span) SetRows(n int) {
	if s != nil {
		s.Rows = int64(n)
	}
}

// SetEst records the planner's cardinality estimate.
func (s *Span) SetEst(est float64) {
	if s != nil {
		s.EstRows = est
	}
}

// AddSteps adds n unit operations to the span's step counter. It is atomic,
// so concurrent goroutines may share one span's counter; every AddSteps must
// still happen-before the span's End (a fork/join WaitGroup provides this).
func (s *Span) AddSteps(n int64) {
	if s != nil {
		atomic.AddInt64(&s.Steps, n)
	}
}

// End stamps the span's duration and publishes a copy to its trace. A
// second End (or End on a nil or snapshot span) is a no-op.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	s.Micros = time.Since(s.begun).Microseconds()
	t := s.t
	s.t = nil
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// Observe appends a caller-assembled span to the trace. It is the escape
// hatch for stages whose verdict is only known after their clock stops —
// the strategy race times its entrants one after another but can label
// win/lose only once all of them have reported — at the price of the
// caller supplying its own timings (see OffsetMicros).
func (t *Trace) Observe(s Span) {
	if t == nil {
		return
	}
	s.t = nil
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// OffsetMicros converts an absolute time to a span start offset (the
// StartMicros convention) on this trace's clock; 0 on a nil trace.
func (t *Trace) OffsetMicros(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.start).Microseconds()
}

// ctxKey is the context key traces travel under.
type ctxKey struct{}

// NewContext returns ctx carrying t; a nil trace returns ctx unchanged, so
// callers can thread an optional trace without branching.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — and nil is a valid
// Trace receiver, so instrumented code uses the result unconditionally.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// QError is the symmetric relative error of a cardinality estimate:
// max(est/actual, actual/est), both sides clamped to ≥ 1 so empty outputs
// and missing estimates stay finite. 1 is a perfect estimate.
func QError(est float64, actual int64) float64 {
	e := math.Max(est, 1)
	a := math.Max(float64(actual), 1)
	return math.Max(e/a, a/e)
}

// A Sampler decides which requests carry a trace when tracing is always-on:
// every Nth Sample call returns a fresh trace, the rest return nil (and a
// nil *Trace costs nothing — see Trace). The counter is atomic, so one
// sampler is shared by every serving goroutine; a nil *Sampler never
// samples, letting callers thread an optional sampler without branching.
type Sampler struct {
	n       uint64
	seen    atomic.Uint64
	sampled atomic.Uint64
}

// NewSampler returns a 1-in-n sampler. n ≤ 0 returns nil (sampling off);
// n == 1 traces every request.
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return nil
	}
	return &Sampler{n: uint64(n)}
}

// Sample returns a new trace on every Nth call (the first sampled call is
// the Nth, so warmup traffic is not over-sampled) and nil otherwise.
func (s *Sampler) Sample() *Trace {
	if s == nil {
		return nil
	}
	if s.seen.Add(1)%s.n != 0 {
		return nil
	}
	s.sampled.Add(1)
	return New()
}

// Seen returns how many Sample calls the sampler has answered.
func (s *Sampler) Seen() uint64 {
	if s == nil {
		return 0
	}
	return s.seen.Load()
}

// Sampled returns how many of those calls returned a trace.
func (s *Sampler) Sampled() uint64 {
	if s == nil {
		return 0
	}
	return s.sampled.Load()
}

// N returns the sampling period (a trace every Nth request); 0 on a nil
// sampler.
func (s *Sampler) N() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}
