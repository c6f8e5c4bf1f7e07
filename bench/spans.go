package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one traced interval. Spans of one operation share Op; Parent is
// the ID of the span that caused this one, -1 at a root. Source says who
// measured it: "bench" spans are timed by this program around a call or a
// request, "program" spans come from the program's own trace, which reports
// durations but no start offsets — they are laid end to end inside their
// parent (see attachProgramSpans).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Source  string `json:"source"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Rows    int64  `json:"rows"`
}

// A recorder keeps spans in memory until the run ends. The zero value is
// off and records nothing; all methods are safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	on     bool
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), on: true} }

// add records one span and returns its ID, or -1 when the recorder is off.
func (r *recorder) add(parent int, op int64, name, source string, start, end time.Time, rows int64) int {
	if r == nil || !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Source: source,
		StartUS: start.Sub(r.origin).Microseconds(), EndUS: end.Sub(r.origin).Microseconds(), Rows: rows,
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// A programSpan is one span summary of the program's public trace: the
// "trace": true field of a /query response, or a root Trace read in process.
type programSpan struct {
	Name   string  `json:"name"`
	Micros int64   `json:"us"`
	Rows   int64   `json:"rows"`
	QError float64 `json:"q_error"`
}

// nameParent returns the longest proper "/"-prefix of name that is itself a
// span name in names, or "" — the taxonomy's convention that "a/b" is a
// sub-stage of "a", applied without a list of known names.
func nameParent(name string, names map[string]bool) string {
	for {
		i := strings.LastIndexByte(name, '/')
		if i < 0 {
			return ""
		}
		name = name[:i]
		if names[name] {
			return name
		}
	}
}

// attachProgramSpans records the program's spans of one operation under the
// bench span parent, which started at start. A program span carries only a
// duration, so each is placed where its parent's previous child ended (roots
// run back to back from start); a child that would overrun its parent — the
// children ran in parallel — is pulled back inside it, so that self time,
// which takes the union of child intervals, stays right either way.
func (r *recorder) attachProgramSpans(parent int, op int64, start time.Time, ps []programSpan) {
	if r == nil || !r.on || len(ps) == 0 {
		return
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	// Parents before children: fewer path segments first, arrival order kept.
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
	}
	depth := func(i int) int { return strings.Count(ps[i].Name, "/") }
	sort.SliceStable(order, func(a, b int) bool { return depth(order[a]) < depth(order[b]) })

	type placed struct {
		id         int
		start, end time.Time
		cursor     time.Time
	}
	byName := map[string]*placed{}
	root := &placed{id: parent, start: start, cursor: start}
	for _, i := range order {
		p := ps[i]
		par := root
		if pn := nameParent(p.Name, names); pn != "" && byName[pn] != nil {
			par = byName[pn]
		}
		dur := time.Duration(p.Micros) * time.Microsecond
		s := par.cursor
		if par != root && s.Add(dur).After(par.end) {
			s = par.end.Add(-dur)
			if s.Before(par.start) {
				s = par.start
			}
		}
		e := s.Add(dur)
		par.cursor = e
		id := r.add(par.id, op, p.Name, "program", s, e, p.Rows)
		byName[p.Name] = &placed{id: id, start: s, end: e, cursor: s}
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
		covered, at := int64(0), s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, at), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = s.EndUS - s.StartUS - covered
	}
	return out
}

// A spanGroup sums the spans sharing one name.
type spanGroup struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Count   int    `json:"count"`
	TotalUS int64  `json:"total_us"`
	SelfUS  int64  `json:"self_us"`
	Rows    int64  `json:"rows"`
}

// groupSpans groups spans by name, whatever names occur: a span the program
// starts emitting later appears here without a change to the bench.
func groupSpans(spans []span) []spanGroup {
	self := selfTimes(spans)
	byName := map[string]*spanGroup{}
	for _, s := range spans {
		g := byName[s.Name]
		if g == nil {
			g = &spanGroup{Name: s.Name, Source: s.Source}
			byName[s.Name] = g
		}
		g.Count++
		g.TotalUS += s.EndUS - s.StartUS
		g.SelfUS += self[s.ID]
		if s.Rows > 0 {
			g.Rows += s.Rows
		}
	}
	out := make([]spanGroup, 0, len(byName))
	for _, g := range byName {
		out = append(out, *g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Groups   []spanGroup `json:"groups"`
	Spans    []span      `json:"spans"`
}

// writeTrace writes the spans once, at the end of the run.
func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Groups: groupSpans(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
