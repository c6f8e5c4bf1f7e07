package stats

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

func refreshDB(t *testing.T, rows int) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	for i := 0; i < rows; i++ {
		if err := db.AddFact("r", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestRefresherRefresh(t *testing.T) {
	var dbMu sync.Mutex
	db := refreshDB(t, 5)
	var installed atomic.Value
	r := NewRefresher(RefresherConfig{
		Collect: func() *Stats {
			dbMu.Lock()
			defer dbMu.Unlock()
			return Collect(db)
		},
		Install: func(s *Stats) { installed.Store(s) },
	})
	s1 := r.Refresh()
	if r.Refreshes() != 1 || installed.Load().(*Stats) != s1 {
		t.Fatalf("first refresh not installed (refreshes=%d)", r.Refreshes())
	}
	if r.LiveFingerprint() != s1.Fingerprint() {
		t.Fatalf("live fingerprint %q != installed %q", r.LiveFingerprint(), s1.Fingerprint())
	}
	dbMu.Lock()
	if err := db.AddFact("r", "extra", "b0"); err != nil {
		t.Fatal(err)
	}
	dbMu.Unlock()
	s2 := r.Refresh()
	if s2.Fingerprint() == s1.Fingerprint() {
		t.Fatal("fingerprint should change when the database changes")
	}
	if r.LiveFingerprint() != s2.Fingerprint() || r.Refreshes() != 2 {
		t.Fatalf("live=%q refreshes=%d after second refresh", r.LiveFingerprint(), r.Refreshes())
	}
}

func TestRefresherRequiresCallbacks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRefresher without callbacks should panic")
		}
	}()
	NewRefresher(RefresherConfig{})
}

func TestRefresherShouldTrigger(t *testing.T) {
	tbl := obs.NewQErrorTable(0)
	db := refreshDB(t, 5)
	r := NewRefresher(RefresherConfig{
		Collect:         func() *Stats { return Collect(db) },
		Install:         func(*Stats) {},
		QErrorThreshold: 100,
		Window:          3,
		Feedback:        tbl.Report,
		Live:            func() string { return "live" },
	})
	if _, ok := r.ShouldTrigger(); ok {
		t.Fatal("empty feedback should not trigger")
	}
	// Two bad observations: below the window, no trigger yet.
	tbl.Record("live", "node", 1, 5000)
	tbl.Record("live", "node", 1, 5000)
	if _, ok := r.ShouldTrigger(); ok {
		t.Fatal("fewer than Window observations should not trigger")
	}
	// Third consecutive bad execution: median of last 3 is 5000 > 100.
	tbl.Record("live", "node", 1, 5000)
	node, ok := r.ShouldTrigger()
	if !ok || node != "node" {
		t.Fatalf("ShouldTrigger = (%q, %v), want (node, true)", node, ok)
	}
	// Stale-fingerprint entries are ignored even when terrible.
	tbl.Reset()
	for i := 0; i < 5; i++ {
		tbl.Record("stale", "node", 1, 100000)
	}
	if _, ok := r.ShouldTrigger(); ok {
		t.Fatal("stale-fingerprint feedback must not trigger")
	}
	// A good median under the live fingerprint does not trigger either.
	for i := 0; i < 5; i++ {
		tbl.Record("live", "node", 10, 12)
	}
	if _, ok := r.ShouldTrigger(); ok {
		t.Fatal("healthy q-errors must not trigger")
	}
}

func TestRefresherRunTriggersOnFeedback(t *testing.T) {
	tbl := obs.NewQErrorTable(0)
	var dbMu sync.Mutex
	db := refreshDB(t, 5)
	var live atomic.Value
	live.Store("")
	r := NewRefresher(RefresherConfig{
		Collect: func() *Stats {
			dbMu.Lock()
			defer dbMu.Unlock()
			return Collect(db)
		},
		Install:         func(s *Stats) { live.Store(s.Fingerprint()) },
		CheckInterval:   5 * time.Millisecond,
		QErrorThreshold: 100,
		Window:          2,
		Cooldown:        time.Millisecond,
		Feedback:        tbl.Report,
	})
	first := r.Refresh() // boot snapshot
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	// Feed sustained bad q-errors under the live fingerprint.
	for i := 0; i < 4; i++ {
		tbl.Record(first.Fingerprint(), "node", 1, 50000)
	}
	deadline := time.After(2 * time.Second)
	for r.Triggered() == 0 {
		select {
		case <-deadline:
			t.Fatal("feedback trigger never fired")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if r.Refreshes() < 2 {
		t.Fatalf("refreshes = %d, want the boot refresh plus a triggered one", r.Refreshes())
	}
}

// A triggered refresh is counted only once its snapshot is installed: while
// the Install hook of a feedback-triggered refresh is still running,
// Triggered() stays 0, and once it reads 1 the fresh fingerprint is live. A
// reader polling Triggered() therefore never sees the trigger with the old
// fingerprint still serving.
func TestRefresherCountsTriggerAfterInstall(t *testing.T) {
	tbl := obs.NewQErrorTable(0)
	var dbMu sync.Mutex
	db := refreshDB(t, 5)
	entered, release := make(chan struct{}), make(chan struct{})
	var released sync.Once
	unblock := func() { released.Do(func() { close(release) }) }
	var boot atomic.Bool
	r := NewRefresher(RefresherConfig{
		Collect: func() *Stats {
			dbMu.Lock()
			defer dbMu.Unlock()
			return Collect(db)
		},
		Install: func(*Stats) {
			if boot.CompareAndSwap(false, true) {
				return // the boot snapshot installs at once
			}
			entered <- struct{}{}
			<-release
		},
		CheckInterval:   time.Millisecond,
		QErrorThreshold: 100,
		Window:          2,
		Cooldown:        time.Hour, // one triggered refresh, then quiet
		Feedback:        tbl.Report,
	})
	first := r.Refresh()
	dbMu.Lock()
	if err := db.AddFact("r", "extra", "b0"); err != nil {
		t.Fatal(err)
	}
	dbMu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	defer func() { unblock(); cancel(); <-done }()

	for i := 0; i < 4; i++ {
		tbl.Record(first.Fingerprint(), "node", 1, 50000)
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("feedback trigger never fired")
	}
	if n := r.Triggered(); n != 0 {
		t.Fatalf("Triggered() = %d while the install is still running, want 0", n)
	}
	unblock()
	deadline := time.After(2 * time.Second)
	for r.Triggered() == 0 {
		select {
		case <-deadline:
			t.Fatal("triggered refresh never counted")
		case <-time.After(time.Millisecond):
		}
	}
	if fp := r.LiveFingerprint(); fp == first.Fingerprint() || r.Refreshes() != 2 {
		t.Fatalf("trigger counted with fingerprint %q (boot %q) and %d refreshes", fp, first.Fingerprint(), r.Refreshes())
	}
}

func TestRefresherRunTimer(t *testing.T) {
	db := refreshDB(t, 3)
	r := NewRefresher(RefresherConfig{
		Collect:       func() *Stats { return Collect(db) },
		Install:       func(*Stats) {},
		Interval:      5 * time.Millisecond,
		CheckInterval: time.Hour, // keep the feedback path quiet
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	deadline := time.After(2 * time.Second)
	for r.Refreshes() < 2 {
		select {
		case <-deadline:
			t.Fatal("timed refresh never fired twice")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	if r.Triggered() != 0 {
		t.Fatalf("timer-only run recorded %d triggered refreshes", r.Triggered())
	}
}
