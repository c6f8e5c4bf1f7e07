package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file maps the obs span taxonomy onto OpenTelemetry's OTLP/JSON wire
// shape (resourceSpans → scopeSpans → spans) with no dependency on the OTel
// SDK: the encoding is small enough to hand-roll, and hand-rolling keeps the
// module dependency-free. The mapping:
//
//   - Trace.TraceID() becomes the 32-hex-digit OTel traceId shared by every
//     span of the trace.
//   - Each Span gets a deterministic 16-hex-digit spanId derived from the
//     trace ID and the span's position, so re-exporting the same trace is
//     idempotent.
//   - Parenthood is inferred from wall-clock interval containment (obs spans
//     carry no parent pointers): a span's parent is the shortest completed
//     span that strictly contains its [start, end] interval. This reproduces
//     the taxonomy's "a/b is a sub-stage of a" convention — exec/node sits
//     inside exec, compile/race inside compile.
//   - Estimates, actuals, q-error, kernel, node identity and step
//     counts ride along as OTel attributes.

// otlpScopeName identifies this tracer as the instrumentation scope in
// exported payloads.
const otlpScopeName = "hypertree/obs"

// otlpValue is the OTLP AnyValue union; exactly one field is set.
type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // int64 as decimal string, per OTLP/JSON
	DoubleValue *float64 `json:"doubleValue,omitempty"`
}

// otlpKeyValue is one OTLP attribute.
type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpSpan is the OTLP/JSON span record.
type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
}

// otlpScope names the instrumentation scope.
type otlpScope struct {
	Name string `json:"name"`
}

// otlpScopeSpans groups spans under one instrumentation scope.
type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

// otlpResource carries resource attributes (service.name).
type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

// otlpResourceSpans pairs a resource with its scope spans.
type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

// otlpPayload is the top-level OTLP/JSON traces request body.
type otlpPayload struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

// attrString/attrInt/attrDouble build OTLP attributes.
func attrString(key, v string) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpValue{StringValue: &v}}
}

func attrInt(key string, v int64) otlpKeyValue {
	s := strconv.FormatInt(v, 10)
	return otlpKeyValue{Key: key, Value: otlpValue{IntValue: &s}}
}

func attrDouble(key string, v float64) otlpKeyValue {
	return otlpKeyValue{Key: key, Value: otlpValue{DoubleValue: &v}}
}

// otlpSpanID derives the deterministic spanId for span index i of trace id.
func otlpSpanID(traceID string, i int) string {
	h := fnv.New64a()
	io.WriteString(h, traceID)
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(i+1))
	h.Write(idx[:])
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], h.Sum64())
	return hex.EncodeToString(out[:])
}

// otlpParentIndex finds the parent of span i among spans: the shortest span
// whose [start, end] interval strictly contains span i's (ties broken toward
// the earlier span). Returns -1 for a root.
func otlpParentIndex(spans []Span, i int) int {
	si, ei := spans[i].StartMicros, spans[i].StartMicros+spans[i].Micros
	best, bestLen := -1, int64(0)
	for j := range spans {
		if j == i {
			continue
		}
		sj, ej := spans[j].StartMicros, spans[j].StartMicros+spans[j].Micros
		// Equal intervals would make parenthood ambiguous (and cyclic);
		// require the candidate to contain, and be strictly larger than,
		// span i's interval.
		if sj > si || ej < ei || (sj == si && ej == ei) {
			continue
		}
		if l := ej - sj; best == -1 || l < bestLen {
			best, bestLen = j, l
		}
	}
	return best
}

// MarshalOTLP encodes the completed spans of the given traces as one
// OTLP/JSON traces payload for the named service. Traces with no completed
// spans are skipped; the result is a valid (possibly empty) payload either
// way.
func MarshalOTLP(service string, traces ...*Trace) ([]byte, error) {
	rs := otlpResourceSpans{
		Resource: otlpResource{Attributes: []otlpKeyValue{attrString("service.name", service)}},
	}
	ss := otlpScopeSpans{Scope: otlpScope{Name: otlpScopeName}}
	for _, t := range traces {
		if t == nil {
			continue
		}
		spans := t.Spans()
		if len(spans) == 0 {
			continue
		}
		traceID := t.TraceID()
		base := t.StartTime().UnixNano()
		ids := make([]string, len(spans))
		for i := range spans {
			ids[i] = otlpSpanID(traceID, i)
		}
		for i, s := range spans {
			o := otlpSpan{
				TraceID:           traceID,
				SpanID:            ids[i],
				Name:              s.Name,
				Kind:              1, // SPAN_KIND_INTERNAL
				StartTimeUnixNano: strconv.FormatInt(base+s.StartMicros*1000, 10),
				EndTimeUnixNano:   strconv.FormatInt(base+(s.StartMicros+s.Micros)*1000, 10),
			}
			if p := otlpParentIndex(spans, i); p >= 0 {
				o.ParentSpanID = ids[p]
			}
			if s.Label != "" {
				o.Attributes = append(o.Attributes, attrString("hypertree.label", s.Label))
			}
			if s.Kernel != "" {
				o.Attributes = append(o.Attributes, attrString("hypertree.kernel", s.Kernel))
			}
			if s.Node >= 0 {
				o.Attributes = append(o.Attributes, attrInt("hypertree.node", int64(s.Node)))
			}
			if s.Steps > 0 {
				o.Attributes = append(o.Attributes, attrInt("hypertree.steps", s.Steps))
			}
			if s.Rows >= 0 {
				o.Attributes = append(o.Attributes, attrInt("hypertree.rows", s.Rows))
			}
			if s.EstRows > 0 {
				o.Attributes = append(o.Attributes, attrDouble("hypertree.est_rows", s.EstRows))
				if s.Rows >= 0 {
					o.Attributes = append(o.Attributes, attrDouble("hypertree.q_error", QError(s.EstRows, s.Rows)))
				}
			}
			ss.Spans = append(ss.Spans, o)
		}
	}
	rs.ScopeSpans = []otlpScopeSpans{ss}
	return json.Marshal(otlpPayload{ResourceSpans: []otlpResourceSpans{rs}})
}

// exportQueue is how many traces an OTLPExporter holds for its sink.
const exportQueue = 256

var errExportDropped = errors.New("otlp export: queue full or exporter closed, trace dropped")

// An OTLPExporter sinks traces as OTLP/JSON, either appending
// newline-delimited payloads to a local file/writer or POSTing each payload
// to an OTLP/HTTP traces endpoint. Export only hands the trace to a bounded
// queue that one goroutine drains into the sink, so a slow or hung sink
// never holds up the caller. All methods are nil-safe and safe for
// concurrent use; export failures — a dropped trace included — are
// counted, never fatal: observability must not take the serving path down.
type OTLPExporter struct {
	service  string
	endpoint string
	client   *http.Client
	w        io.Writer
	closer   io.Closer

	mu      sync.Mutex // guards queue and closed
	queue   chan *Trace
	closed  bool
	drained sync.WaitGroup // the drain goroutine

	exported atomic.Uint64
	failed   atomic.Uint64
}

// NewOTLPWriterExporter returns an exporter appending one OTLP/JSON payload
// per exported trace, newline-delimited, to w.
func NewOTLPWriterExporter(w io.Writer, service string) *OTLPExporter {
	return &OTLPExporter{service: service, w: w}
}

// NewOTLPFileExporter returns an exporter appending newline-delimited
// OTLP/JSON payloads to the file at path (created or appended to).
func NewOTLPFileExporter(path, service string) (*OTLPExporter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("otlp file sink: %w", err)
	}
	e := NewOTLPWriterExporter(f, service)
	e.closer = f
	return e, nil
}

// NewOTLPHTTPExporter returns an exporter POSTing each payload to an
// OTLP/HTTP traces endpoint (typically http://host:4318/v1/traces) as
// application/json.
func NewOTLPHTTPExporter(endpoint, service string) *OTLPExporter {
	return &OTLPExporter{
		service:  service,
		endpoint: endpoint,
		client:   &http.Client{Timeout: 5 * time.Second},
	}
}

// Export queues t for the sink and returns at once; the drain goroutine,
// started by the first Export, encodes t's completed spans and ships them.
// Traces with no spans (and nil traces/exporters) are ignored. A full queue,
// or a closed exporter, drops t: the drop is counted in Failed and
// returned. Sink errors are counted in Failed as the queue drains.
func (e *OTLPExporter) Export(t *Trace) error {
	if e == nil || t == nil || t.Len() == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		if e.queue == nil {
			e.queue = make(chan *Trace, exportQueue)
			e.drained.Add(1)
			go e.drain()
		}
		select {
		case e.queue <- t:
			return nil
		default:
		}
	}
	e.failed.Add(1)
	return errExportDropped
}

// drain ships the queued traces one by one until Close closes the queue.
func (e *OTLPExporter) drain() {
	defer e.drained.Done()
	for t := range e.queue {
		if e.ship(t) == nil {
			e.exported.Add(1)
		} else {
			e.failed.Add(1)
		}
	}
}

// ship encodes t and writes or POSTs the payload.
func (e *OTLPExporter) ship(t *Trace) error {
	payload, err := MarshalOTLP(e.service, t)
	if err != nil {
		return err
	}
	if e.endpoint == "" {
		_, err = e.w.Write(append(payload, '\n'))
		return err
	}
	resp, err := e.client.Post(e.endpoint, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("otlp export: endpoint returned %s", resp.Status)
	}
	return nil
}

// Exported returns how many traces have been shipped successfully.
func (e *OTLPExporter) Exported() uint64 {
	if e == nil {
		return 0
	}
	return e.exported.Load()
}

// Failed returns how many exports errored or were dropped.
func (e *OTLPExporter) Failed() uint64 {
	if e == nil {
		return 0
	}
	return e.failed.Load()
}

// Close drains the queue into the sink, waits for it, and releases the file
// sink, if any; later exports are dropped. Nil-safe, and closing twice is a
// no-op.
func (e *OTLPExporter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	if e.queue != nil {
		close(e.queue)
	}
	e.mu.Unlock()
	e.drained.Wait()
	if e.closer == nil {
		return nil
	}
	return e.closer.Close()
}
