package hypertree

import (
	"context"
	"io"

	"hypertree/internal/obs"
)

// A Trace collects the spans of one traced query: compile stages (parse,
// decomposition, every race entrant with its win/lose verdict) and
// execution stages (per-node λ-join materialisation with actual vs
// estimated cardinality, semijoin passes, enumeration). Create one with NewTrace,
// attach it with ContextWithTrace (the only way in), and read it with Spans,
// Render, or Plan.ExplainAnalyze(t). All methods are nil-safe and safe for
// concurrent use; see the internal obs package for the full contract.
type Trace = obs.Trace

// A TraceSpan is one traced stage of a query's life: its name (see the
// span taxonomy in docs/ARCHITECTURE.md), wall time, step count, and
// actual vs estimated output cardinality.
type TraceSpan = obs.Span

// NewTrace returns an empty trace; span start offsets count from this
// moment.
func NewTrace() *Trace { return obs.New() }

// ContextWithTrace returns ctx carrying t: every Compile or Execute under
// the returned context records its spans into t, without the trace
// becoming part of the plan or its cache identity. A nil trace returns ctx
// unchanged. This is how a serving layer traces individual requests while
// every request still shares one PlanCache slot.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return obs.NewContext(ctx, t)
}

// TraceFromContext returns the trace carried by ctx, or nil (a valid,
// inert trace receiver).
func TraceFromContext(ctx context.Context) *Trace { return obs.FromContext(ctx) }

// QError is the symmetric relative error of a cardinality estimate:
// max(est/actual, actual/est), clamped so empty outputs stay finite. 1 is
// a perfect estimate.
func QError(est float64, actual int64) float64 { return obs.QError(est, actual) }

// A TraceSampler decides which requests carry a trace when tracing is
// always-on: every Nth Sample call returns a fresh trace, the rest return
// nil (and a nil *Trace costs nothing). Safe for concurrent use; a nil
// sampler never samples. Create with NewTraceSampler.
type TraceSampler = obs.Sampler

// NewTraceSampler returns a 1-in-n trace sampler (n ≤ 0 disables sampling
// by returning nil, which is a valid inert sampler).
func NewTraceSampler(n int) *TraceSampler { return obs.NewSampler(n) }

// An OTLPExporter ships traces as OpenTelemetry OTLP/JSON — to a local
// file/writer sink (newline-delimited payloads) or POSTed to an OTLP/HTTP
// traces endpoint — with the span taxonomy mapped onto OTel spans: shared
// trace IDs, deterministic span IDs, parenthood inferred from span interval
// containment, and kernel/node/rows/estimate/q-error attributes. The
// encoding is hand-rolled (no SDK dependency); see MarshalOTLP for the raw
// payload. All methods are nil-safe and safe for concurrent use.
type OTLPExporter = obs.OTLPExporter

// NewOTLPFileExporter returns an exporter appending newline-delimited
// OTLP/JSON payloads to the file at path (created or appended to).
func NewOTLPFileExporter(path, service string) (*OTLPExporter, error) {
	return obs.NewOTLPFileExporter(path, service)
}

// NewOTLPWriterExporter returns an exporter appending newline-delimited
// OTLP/JSON payloads to w.
func NewOTLPWriterExporter(w io.Writer, service string) *OTLPExporter {
	return obs.NewOTLPWriterExporter(w, service)
}

// NewOTLPHTTPExporter returns an exporter POSTing each trace's OTLP/JSON
// payload to an OTLP/HTTP traces endpoint (typically
// http://host:4318/v1/traces).
func NewOTLPHTTPExporter(endpoint, service string) *OTLPExporter {
	return obs.NewOTLPHTTPExporter(endpoint, service)
}

// MarshalOTLP encodes the completed spans of the given traces as one
// OpenTelemetry OTLP/JSON traces payload for the named service.
func MarshalOTLP(service string, traces ...*Trace) ([]byte, error) {
	return obs.MarshalOTLP(service, traces...)
}
