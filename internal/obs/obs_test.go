package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan(SpanNode)
	if sp != nil {
		t.Fatalf("StartSpan on nil trace = %v, want nil", sp)
	}
	// Every span method must be a no-op on nil.
	sp.SetLabel("x")
	sp.SetNode(1)
	sp.SetRows(3)
	sp.SetEst(4)
	sp.AddSteps(5)
	sp.End()
	if got := tr.Spans(); got != nil {
		t.Fatalf("Spans on nil trace = %v, want nil", got)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len on nil trace = %d, want 0", tr.Len())
	}
	if !strings.Contains(tr.Render(), "no spans") {
		t.Fatalf("Render on nil trace = %q", tr.Render())
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New()
	sp := tr.StartSpan(SpanNode)
	sp.SetLabel("χ{X,Y} λ{r}")
	sp.SetNode(3)
	sp.SetRows(42)
	sp.SetEst(40)
	sp.AddSteps(2)
	if tr.Len() != 0 {
		t.Fatalf("span visible before End: Len = %d", tr.Len())
	}
	sp.End()
	sp.End() // second End must be a no-op
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != SpanNode || s.Node != 3 || s.Rows != 42 || s.EstRows != 40 || s.Steps != 2 || s.Label != "χ{X,Y} λ{r}" {
		t.Fatalf("span = %+v", s)
	}
	if s.Micros < 0 || s.StartMicros < 0 {
		t.Fatalf("negative timing: %+v", s)
	}
	// The snapshot is a copy: mutating it must not reach the trace.
	spans[0].Rows = 0
	if tr.Spans()[0].Rows != 42 {
		t.Fatal("Spans returned a shared slice")
	}
}

func TestSpanDefaults(t *testing.T) {
	tr := New()
	sp := tr.StartSpan(SpanExec)
	sp.End()
	s := tr.Spans()[0]
	if s.Node != -1 || s.Rows != -1 {
		t.Fatalf("defaults = node %d rows %d, want -1 each", s.Node, s.Rows)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext(empty) = %v", got)
	}
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("NewContext with nil trace should return ctx unchanged")
	}
	tr := New()
	if got := FromContext(NewContext(ctx, tr)); got != tr {
		t.Fatalf("FromContext = %v, want %v", got, tr)
	}
}

func TestQError(t *testing.T) {
	cases := []struct {
		est    float64
		actual int64
		want   float64
	}{
		{10, 10, 1},
		{10, 20, 2},
		{20, 10, 2},
		{0, 10, 10}, // missing estimate clamps to 1
		{10, 0, 10}, // empty output clamps to 1
		{0, 0, 1},   // both clamp
		{0.5, 2, 2}, // sub-1 estimates clamp too
	}
	for _, c := range cases {
		if got := QError(c.est, c.actual); got != c.want {
			t.Errorf("QError(%g, %d) = %g, want %g", c.est, c.actual, got, c.want)
		}
	}
}

func TestRenderMentionsQError(t *testing.T) {
	tr := New()
	sp := tr.StartSpan(SpanNode)
	sp.SetNode(0)
	sp.SetRows(100)
	sp.SetEst(50)
	sp.End()
	out := tr.Render()
	if !strings.Contains(out, "est=50") || !strings.Contains(out, "q-err=2") {
		t.Fatalf("Render = %q", out)
	}
}

// TestTraceConcurrentSpans hammers one trace from many goroutines the way
// parallel per-node materialisation does: spans started, annotated and
// ended concurrently, with a shared span's step counter bumped from every
// worker. Run under -race this is the tracer's safety proof.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := New()
	const workers = 32
	const perWorker = 50

	shared := tr.StartSpan(SpanSemijoinUp)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.StartSpan(SpanNode)
				sp.SetNode(w)
				sp.SetRows(i)
				sp.End()
				shared.AddSteps(1)
				// Concurrent readers must only ever see completed spans.
				for _, s := range tr.Spans() {
					if s.Micros < 0 {
						t.Error("observed an unfinished span")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	shared.End()

	spans := tr.Spans()
	if len(spans) != workers*perWorker+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker+1)
	}
	for _, s := range spans {
		if s.Name == SpanSemijoinUp && s.Steps != workers*perWorker {
			t.Fatalf("shared steps = %d, want %d", s.Steps, workers*perWorker)
		}
	}
}
