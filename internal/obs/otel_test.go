package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTraceID(t *testing.T) {
	var nilT *Trace
	if nilT.TraceID() != "" {
		t.Fatal("nil trace should have an empty ID")
	}
	a, b := New(), New()
	idRe := regexp.MustCompile(`^[0-9a-f]{32}$`)
	if !idRe.MatchString(a.TraceID()) {
		t.Fatalf("trace ID %q is not 32 hex digits", a.TraceID())
	}
	if a.TraceID() == b.TraceID() {
		t.Fatalf("two traces share ID %q", a.TraceID())
	}
	if a.TraceID() != a.TraceID() {
		t.Fatal("trace ID must be stable")
	}
	if nilT.StartTime() != (time.Time{}) {
		t.Fatal("nil trace should have a zero start time")
	}
}

func TestSampler(t *testing.T) {
	if NewSampler(0) != nil || NewSampler(-3) != nil {
		t.Fatal("non-positive rates should disable sampling")
	}
	var off *Sampler
	if off.Sample() != nil || off.Sampled() != 0 || off.Seen() != 0 || off.N() != 0 {
		t.Fatal("nil sampler should be inert")
	}
	s := NewSampler(3)
	var got int
	for i := 0; i < 9; i++ {
		tr := s.Sample()
		if tr != nil {
			got++
			if (i+1)%3 != 0 {
				t.Fatalf("sampled on call %d, want every 3rd", i+1)
			}
		}
	}
	if got != 3 || s.Sampled() != 3 || s.Seen() != 9 || s.N() != 3 {
		t.Fatalf("got=%d sampled=%d seen=%d n=%d, want 3/3/9/3", got, s.Sampled(), s.Seen(), s.N())
	}
	every := NewSampler(1)
	if every.Sample() == nil {
		t.Fatal("1-in-1 sampler must always sample")
	}
}

func TestSamplerConcurrent(t *testing.T) {
	s := NewSampler(10)
	const workers, per = 8, 1000
	var traced atomic.Int64
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				if s.Sample() != nil {
					traced.Add(1)
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	want := int64(workers * per / 10)
	if traced.Load() != want || int64(s.Sampled()) != want {
		t.Fatalf("traced=%d sampled=%d, want exactly %d", traced.Load(), s.Sampled(), want)
	}
}

// sampleTrace builds a trace shaped like a real compile+exec: exec contains
// exec/node, which carries estimate/actual cardinalities.
func sampleTrace() *Trace {
	tr := New()
	compile := tr.StartSpan(SpanCompile)
	compile.SetLabel("auto")
	compile.End()
	exec := tr.StartSpan(SpanExec)
	node := tr.StartSpan(SpanNode)
	node.SetNode(0)
	node.SetKernel("leapfrog")
	node.SetRows(40)
	node.SetEst(4.0)
	node.AddSteps(2)
	time.Sleep(2 * time.Millisecond) // make exec's interval strictly contain node's
	node.End()
	time.Sleep(time.Millisecond)
	exec.SetRows(40)
	exec.End()
	return tr
}

func TestMarshalOTLP(t *testing.T) {
	tr := sampleTrace()
	payload, err := MarshalOTLP("hdserve-test", tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Scope struct {
					Name string `json:"name"`
				} `json:"scope"`
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
					Attributes   []struct {
						Key   string `json:"key"`
						Value struct {
							StringValue string   `json:"stringValue"`
							IntValue    string   `json:"intValue"`
							DoubleValue *float64 `json:"doubleValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatalf("payload is not valid JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected payload shape: %s", payload)
	}
	res := doc.ResourceSpans[0]
	if len(res.Resource.Attributes) == 0 || res.Resource.Attributes[0].Key != "service.name" ||
		res.Resource.Attributes[0].Value.StringValue != "hdserve-test" {
		t.Fatalf("missing service.name resource attribute: %s", payload)
	}
	spans := res.ScopeSpans[0].Spans
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	idRe := regexp.MustCompile(`^[0-9a-f]{32}$`)
	spanRe := regexp.MustCompile(`^[0-9a-f]{16}$`)
	byName := map[string]int{}
	seenIDs := map[string]bool{}
	for i, s := range spans {
		if s.TraceID != tr.TraceID() || !idRe.MatchString(s.TraceID) {
			t.Fatalf("span %d traceId %q != trace %q", i, s.TraceID, tr.TraceID())
		}
		if !spanRe.MatchString(s.SpanID) || seenIDs[s.SpanID] {
			t.Fatalf("span %d has bad or duplicate spanId %q", i, s.SpanID)
		}
		seenIDs[s.SpanID] = true
		start, err1 := strconv.ParseInt(s.Start, 10, 64)
		end, err2 := strconv.ParseInt(s.End, 10, 64)
		if err1 != nil || err2 != nil || end < start || start < tr.StartTime().UnixNano() {
			t.Fatalf("span %d has bad times %q..%q", i, s.Start, s.End)
		}
		byName[s.Name] = i
	}
	nodeIdx, ok := byName[SpanNode]
	execIdx, ok2 := byName[SpanExec]
	if !ok || !ok2 {
		t.Fatalf("missing exec/node spans in %v", byName)
	}
	if spans[nodeIdx].ParentSpanID != spans[execIdx].SpanID {
		t.Fatalf("exec/node parent = %q, want exec's span ID %q",
			spans[nodeIdx].ParentSpanID, spans[execIdx].SpanID)
	}
	attrs := map[string]bool{}
	var qerr float64
	for _, a := range spans[nodeIdx].Attributes {
		attrs[a.Key] = true
		if a.Key == "hypertree.q_error" && a.Value.DoubleValue != nil {
			qerr = *a.Value.DoubleValue
		}
	}
	for _, want := range []string{"hypertree.kernel", "hypertree.node", "hypertree.rows", "hypertree.est_rows", "hypertree.q_error", "hypertree.steps"} {
		if !attrs[want] {
			t.Fatalf("node span missing attribute %s (have %v)", want, attrs)
		}
	}
	if qerr != QError(4, 40) {
		t.Fatalf("q_error attribute = %v, want %v", qerr, QError(4, 40))
	}
}

func TestMarshalOTLPEmpty(t *testing.T) {
	payload, err := MarshalOTLP("svc", nil, New())
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(payload) {
		t.Fatalf("empty payload invalid: %s", payload)
	}
}

func TestOTLPWriterExporter(t *testing.T) {
	var buf bytes.Buffer
	e := NewOTLPWriterExporter(&buf, "svc")
	if err := e.Export(sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := e.Export(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // drains the queue
		t.Fatal(err)
	}
	if e.Exported() != 1 || e.Failed() != 0 {
		t.Fatalf("exported=%d failed=%d, want 1/0", e.Exported(), e.Failed())
	}
	line := strings.TrimSpace(buf.String())
	if !json.Valid([]byte(line)) {
		t.Fatalf("file sink line is not JSON: %q", line)
	}
	var nilE *OTLPExporter
	if err := nilE.Export(sampleTrace()); err != nil || nilE.Exported() != 0 || nilE.Failed() != 0 {
		t.Fatal("nil exporter should be inert")
	}
	if err := nilE.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Export(sampleTrace()); err == nil || e.Failed() != 1 {
		t.Fatalf("export after Close: err %v, failed=%d; want a counted drop", err, e.Failed())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOTLPHTTPExporter(t *testing.T) {
	var got atomic.Int64
	var body atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		body.Store(buf.String())
		got.Add(1)
	}))
	defer srv.Close()
	e := NewOTLPHTTPExporter(srv.URL, "svc")
	if err := e.Export(sampleTrace()); err != nil {
		t.Fatal(err)
	}
	e.Close() // drains the queue
	if got.Load() != 1 || e.Exported() != 1 {
		t.Fatalf("endpoint saw %d posts, exporter counted %d", got.Load(), e.Exported())
	}
	if b, _ := body.Load().(string); !strings.Contains(b, `"resourceSpans"`) {
		t.Fatalf("posted body missing resourceSpans: %q", b)
	}

	down := NewOTLPHTTPExporter(srv.URL+"/missing", "svc")
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv2.Close()
	down = NewOTLPHTTPExporter(srv2.URL, "svc")
	if err := down.Export(sampleTrace()); err != nil {
		t.Fatal(err)
	}
	down.Close()
	if down.Failed() != 1 || down.Exported() != 0 {
		t.Fatalf("failed=%d, want 1", down.Failed())
	}
}

// Export never waits on the sink: against an endpoint that never answers,
// exportQueue exports return at once, the next is dropped and counted, and
// Close — once the endpoint is released — ships what was queued.
func TestOTLPExportDoesNotBlockOnAHungSink(t *testing.T) {
	release, arrived := make(chan struct{}), make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release
	}))
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer srv.Close()
	defer unblock() // before srv.Close, which waits for the handler
	e := NewOTLPHTTPExporter(srv.URL, "svc")
	tr := sampleTrace()
	start := time.Now()
	// one trace in flight to the hung endpoint, a full queue behind it
	if err := e.Export(tr); err != nil {
		t.Fatal(err)
	}
	<-arrived
	for e.Export(tr) == nil {
		if time.Since(start) > time.Second {
			t.Fatal("the queue never filled")
		}
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("%d exports took %v against a hung endpoint", e.Failed()+exportQueue, took)
	}
	if e.Failed() != 1 {
		t.Fatalf("failed=%d, want the one dropped trace", e.Failed())
	}
	unblock()
	e.Close()
	if e.Exported() != exportQueue+1 {
		t.Fatalf("exported=%d after Close, want %d", e.Exported(), exportQueue+1)
	}
}
