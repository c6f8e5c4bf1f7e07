package main

import (
	"testing"
	"time"
)

// Self time is the span's duration minus the part of its interval its
// children cover: overlapping children count once, and a child reaching past
// its parent is clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Name: "a", StartUS: 10, EndUS: 40},
		{ID: 2, Parent: 0, Name: "b", StartUS: 30, EndUS: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", StartUS: 90, EndUS: 120}, // 20 past the parent's end
		{ID: 4, Parent: 1, Name: "a/x", StartUS: 10, EndUS: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - (50 + 10), 1: 30 - 15, 2: 30, 3: 30, 4: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, self[id], w)
		}
	}
	groups := groupSpans(spans)
	if len(groups) != 5 || groups[0].Name != "a" || groups[0].SelfUS != 15 || groups[0].TotalUS != 30 {
		t.Errorf("groupSpans = %+v", groups)
	}
}

func TestNameParent(t *testing.T) {
	names := map[string]bool{"exec": true, "exec/node": true, "exec/semijoin/up": true, "compile": true}
	for name, want := range map[string]string{
		"exec":             "",
		"exec/node":        "exec",
		"exec/semijoin/up": "exec", // no "exec/semijoin" span exists
		"exec/node/shard":  "exec/node",
		"compile/race":     "compile",
		"render":           "",
	} {
		if got := nameParent(name, names); got != want {
			t.Errorf("nameParent(%q) = %q, want %q", name, got, want)
		}
	}
}

// Program spans carry durations only. Laid out under a request span, the
// exec span's self time must come out as its duration minus its children's,
// and a span name the bench has never heard of must be placed like any other.
func TestAttachProgramSpans(t *testing.T) {
	rec := newRecorder()
	start := rec.origin.Add(time.Millisecond)
	req := rec.add(-1, 7, "request", "bench", start, start.Add(2*time.Millisecond), -1)
	rec.attachProgramSpans(req, 7, start, []programSpan{
		// End order, as the program reports them: children before parents.
		{Name: "compile", Micros: 100},
		{Name: "exec/node", Micros: 300, Rows: 5},
		{Name: "exec/node", Micros: 200, Rows: 6},
		{Name: "exec/brand-new-stage", Micros: 150},
		{Name: "exec/semijoin/up", Micros: 50},
		{Name: "exec", Micros: 1000, Rows: 1},
	})
	spans := rec.snapshot()
	if len(spans) != 7 {
		t.Fatalf("%d spans recorded, want 7", len(spans))
	}
	self := selfTimes(spans)
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Op != 7 {
			t.Errorf("span %s has op %d, want 7", s.Name, s.Op)
		}
	}
	exec := byName["exec"][0]
	if exec.Parent != req || exec.StartUS != 1100 || exec.EndUS != 2100 {
		t.Errorf("exec placed at [%d,%d] under %d, want [1100,2100] under %d (after compile)", exec.StartUS, exec.EndUS, exec.Parent, req)
	}
	if got := self[exec.ID]; got != 1000-(300+200+150+50) {
		t.Errorf("exec self time = %d, want 300", got)
	}
	for _, name := range []string{"exec/node", "exec/brand-new-stage", "exec/semijoin/up"} {
		for _, s := range byName[name] {
			if s.Parent != exec.ID || s.StartUS < exec.StartUS || s.EndUS > exec.EndUS {
				t.Errorf("%s at [%d,%d] parent %d: not inside exec", name, s.StartUS, s.EndUS, s.Parent)
			}
		}
	}
	if got := self[req]; got != 2000-1100 {
		t.Errorf("request self time = %d, want 900", got)
	}
	var nilRec *recorder
	if id := nilRec.add(-1, 0, "x", "bench", start, start, 0); id != -1 {
		t.Errorf("a nil recorder recorded span %d", id)
	}
}
