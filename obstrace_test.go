package hypertree

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/obs"
)

// spanNames collects the distinct span names in a trace.
func spanNames(t *Trace) map[string]int {
	out := map[string]int{}
	for _, s := range t.Spans() {
		out[s.Name]++
	}
	return out
}

// The observability property: attaching a trace must not change a single
// answer. Random acyclic and cyclic queries, all four decomposition
// strategies, tables and Boolean verdicts — the traced run's output must be
// byte-identical to the untraced run's, and the trace must actually have
// recorded the execution.
func TestPropertyTracingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		var q *Query
		switch trial % 3 {
		case 0:
			q = gen.Cycle(3 + rng.Intn(4)) // cyclic
		case 1:
			q = gen.Path(2 + rng.Intn(4)) // acyclic
		default:
			q = gen.RandomCSP(rng, 4+rng.Intn(3), 6+rng.Intn(4), 3) // cyclic
		}
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(25), 2+rng.Intn(5))

		for name, opts := range map[string][]CompileOption{
			"k-decomp": {WithStrategy(StrategyHypertree), WithDecomposer(KDecomposer())},
			"ghd":      {WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer())},
			"fhd":      {WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer())},
			"auto":     {WithAutoStrategy(), WithStats(db)},
		} {
			plan, err := Compile(q, opts...)
			if err != nil {
				t.Fatalf("trial %d %s compile: %v", trial, name, err)
			}
			want, err := plan.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			wantBool, err := plan.ExecuteBoolean(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s boolean: %v", trial, name, err)
			}

			tr := NewTrace()
			tctx := ContextWithTrace(ctx, tr)
			got, err := plan.Execute(tctx, db)
			if err != nil {
				t.Fatalf("trial %d %s traced execute: %v", trial, name, err)
			}
			if !got.Equal(want) || got.StringWith(db, q.VarName) != want.StringWith(db, q.VarName) {
				t.Fatalf("trial %d: %s traced answers disagree on %s", trial, name, q)
			}
			gotBool, err := plan.ExecuteBoolean(tctx, db)
			if err != nil {
				t.Fatalf("trial %d %s traced boolean: %v", trial, name, err)
			}
			if gotBool != wantBool {
				t.Fatalf("trial %d: %s traced verdict disagrees on %s", trial, name, q)
			}

			names := spanNames(tr)
			if names[obs.SpanExec] != 2 {
				t.Fatalf("trial %d %s: want 2 %q spans, got %d", trial, name, obs.SpanExec, names[obs.SpanExec])
			}
			if plan.Decomposition() != nil && names[obs.SpanNode] == 0 {
				t.Fatalf("trial %d %s: no %q spans recorded", trial, name, obs.SpanNode)
			}
		}
	}
}

// Tracing must be data-race-free when one plan — and one shared Trace —
// executes concurrently with parallel per-node materialisation, listing and
// Boolean executions interleaved, while readers snapshot and render the same
// trace. Run under `go test -race` (CI does).
func TestTraceRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := gen.Cycle(4)
	db := gen.RandomDatabase(rng, q, 60, 6)
	plan, err := Compile(q, WithAutoStrategy(), WithStats(db), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := plan.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}

	tr := NewTrace()
	tctx := ContextWithTrace(ctx, tr)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				var ok bool
				var err error
				if (i+rep)%2 == 0 {
					var got *Table
					got, err = plan.Execute(tctx, db)
					ok = err == nil && got.Equal(want)
				} else {
					var holds bool
					holds, err = plan.ExecuteBoolean(tctx, db)
					ok = holds == !want.Empty()
				}
				if err != nil {
					errc <- err
					return
				}
				if !ok {
					errc <- errTraceStressMismatch
					return
				}
			}
		}(i)
	}
	// Concurrent readers: snapshots, renders and the analyze report must
	// be safe while writers are appending spans.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 16; rep++ {
				_ = tr.Spans()
				_ = tr.Render()
				_ = tr.Len()
				_ = plan.ExplainAnalyze(tr)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := spanNames(tr); n[obs.SpanExec] != 32 || n[obs.SpanNode] == 0 {
		t.Fatalf("stress trace incomplete: %v", n)
	}
}

// errTraceStressMismatch flags a traced stress run whose answers diverged.
var errTraceStressMismatch = &mismatchError{}

// mismatchError is a sentinel error type for the stress test.
type mismatchError struct{}

func (*mismatchError) Error() string { return "traced concurrent execution returned wrong answers" }

// TraceFromContext round-trips, and a nil trace is inert everywhere.
func TestTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if TraceFromContext(ctx) != nil {
		t.Fatal("empty context carries a trace")
	}
	tr := NewTrace()
	if got := TraceFromContext(ContextWithTrace(ctx, tr)); got != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	if got := ContextWithTrace(ctx, nil); TraceFromContext(got) != nil {
		t.Fatal("nil trace should leave the context bare")
	}
	var nilTrace *Trace
	nilTrace.Observe(TraceSpan{Name: "x"})
	if nilTrace.Len() != 0 || nilTrace.Spans() != nil || !strings.Contains(nilTrace.Render(), "no spans") {
		t.Fatal("nil trace is not inert")
	}
	sp := nilTrace.StartSpan("x")
	sp.AddSteps(1)
	sp.End()
}

// A traced compile and execution exports as OTLP/JSON that parses back
// span for span: every span under the trace's ID with a distinct span ID,
// the compile, exec and exec/node spans present, and the q-error attribute
// carried by the executed nodes.
func TestMarshalOTLPOfExecutedTrace(t *testing.T) {
	db := gen.ServingDatabase(rand.New(rand.NewSource(28)), 500, 300)
	q := MustParseQuery(`r1(X1, X2), r2(X2, X3), r3(X3, X1)`)
	tr := NewTrace()
	plan, err := CompileContext(ContextWithTrace(context.Background(), tr), q, WithAutoStrategy(), WithCostModel(CollectStatsSampled(db, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(ContextWithTrace(context.Background(), tr), db); err != nil {
		t.Fatal(err)
	}
	payload, err := MarshalOTLP("hypertree-test", tr)
	if err != nil {
		t.Fatal(err)
	}
	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID    string `json:"traceId"`
					SpanID     string `json:"spanId"`
					Name       string `json:"name"`
					Attributes []struct {
						Key string `json:"key"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(payload, &otlp); err != nil {
		t.Fatalf("OTLP payload does not parse back: %v", err)
	}
	if len(otlp.ResourceSpans) != 1 || len(otlp.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("OTLP payload shape: %s", payload)
	}
	spans := otlp.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != len(tr.Spans()) {
		t.Fatalf("OTLP payload has %d spans, the trace %d", len(spans), len(tr.Spans()))
	}
	names, ids, qerrs := map[string]bool{}, map[string]bool{}, 0
	for _, sp := range spans {
		if sp.TraceID != tr.TraceID() || ids[sp.SpanID] {
			t.Fatalf("span %q: trace ID %q (want %q), span ID %q seen before: %v",
				sp.Name, sp.TraceID, tr.TraceID(), sp.SpanID, ids[sp.SpanID])
		}
		ids[sp.SpanID] = true
		names[sp.Name] = true
		for _, a := range sp.Attributes {
			if a.Key == "hypertree.q_error" {
				qerrs++
			}
		}
	}
	for _, need := range []string{obs.SpanCompile, obs.SpanExec, obs.SpanNode} {
		if !names[need] {
			t.Errorf("OTLP payload is missing a %q span", need)
		}
	}
	if qerrs == 0 {
		t.Error("no span carries the hypertree.q_error attribute")
	}
}
