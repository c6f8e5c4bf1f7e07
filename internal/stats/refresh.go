package stats

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/obs"
)

// This file closes the loop the tracer opened: obs.QErrorReport names the
// (statistics fingerprint, node) pairs whose cardinality estimates are
// systematically wrong, and the Refresher acts on it — re-collecting a
// (sampled) snapshot and handing it to an Install callback that atomically
// swaps the serving layer's shared pointer. Because PlanCache keys embed the
// statistics fingerprint, a swap invalidates nothing and races nothing:
// in-flight executions keep their plans, and the next compile of each query
// re-ranks under the fresh snapshot's fingerprint.

// Refresh-trigger defaults. They are deliberately conservative: a refresh is
// cheap but not free (it re-scans samples of every relation and cold-starts
// the cache's cost ranking), so the trigger demands a sustained, large
// median error before acting between timer ticks.
const (
	// DefaultQErrorWindow is how many consecutive recent executions of one
	// node the trigger takes the median over.
	DefaultQErrorWindow = 8
	// DefaultCheckInterval is how often the run loop re-examines the
	// feedback table between timed refreshes.
	DefaultCheckInterval = time.Second
	// DefaultCooldown is the minimum spacing between triggered refreshes,
	// so a workload whose estimates stay bad after refresh (skew the
	// statistics cannot see) does not spin the collector.
	DefaultCooldown = 10 * time.Second
)

// RefresherConfig configures a Refresher. Collect and Install are required;
// everything else has a serving-grade default.
type RefresherConfig struct {
	// Collect gathers a fresh snapshot (typically a closure over the live
	// database calling CollectSampled).
	Collect func() *Stats
	// Install publishes the collected snapshot to the serving layer
	// (typically an atomic pointer swap plus obs.SetLiveFingerprint).
	Install func(*Stats)

	// Interval is the timer period for unconditional refreshes; 0 disables
	// timed refreshes (the loop still watches the feedback table).
	Interval time.Duration
	// CheckInterval is how often the feedback table is examined; ≤ 0 selects
	// DefaultCheckInterval.
	CheckInterval time.Duration

	// QErrorThreshold arms the feedback trigger: refresh when some node's
	// median q-error over its last Window executions under the live
	// fingerprint exceeds it. ≤ 0 disables the trigger.
	QErrorThreshold float64
	// Window is the consecutive-execution count the median is taken over;
	// ≤ 0 selects DefaultQErrorWindow.
	Window int
	// Cooldown is the minimum spacing between triggered refreshes; ≤ 0
	// selects DefaultCooldown.
	Cooldown time.Duration

	// Feedback supplies the q-error entries to examine; nil selects the
	// process-wide obs.QErrorReport.
	Feedback func() []obs.QErrorEntry
	// Live names the currently-serving statistics fingerprint so the
	// trigger ignores entries from superseded snapshots; nil means the
	// fingerprint of the last snapshot this Refresher installed.
	Live func() string
}

// A Refresher re-collects database statistics and atomically installs the
// fresh snapshot, on a timer and/or when execution feedback shows the live
// snapshot's estimates have gone bad. Create with NewRefresher, drive with
// Run (or call Refresh directly); all methods are safe for concurrent use.
type Refresher struct {
	cfg RefresherConfig

	mu        sync.Mutex // serialises collect+install
	lastFP    atomic.Value
	lastAt    atomic.Int64 // unix nanos of the last triggered refresh
	refreshes atomic.Uint64
	triggered atomic.Uint64
}

// NewRefresher returns a Refresher over cfg. It panics if Collect or
// Install is missing — a refresher with no way to collect or publish is a
// programming error, not a runtime condition.
func NewRefresher(cfg RefresherConfig) *Refresher {
	if cfg.Collect == nil || cfg.Install == nil {
		panic("stats: NewRefresher requires Collect and Install")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = DefaultCheckInterval
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultQErrorWindow
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Feedback == nil {
		cfg.Feedback = obs.QErrorReport
	}
	r := &Refresher{cfg: cfg}
	r.lastFP.Store("")
	return r
}

// Refresh collects and installs a snapshot unconditionally, returning the
// installed snapshot. Concurrent calls are serialised; each performs its own
// collect+install (the caller asked for fresh statistics, not recent ones).
func (r *Refresher) Refresh() *Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.cfg.Collect()
	r.cfg.Install(s)
	r.lastFP.Store(s.Fingerprint())
	r.refreshes.Add(1)
	return s
}

// Refreshes returns how many snapshots this Refresher has installed.
func (r *Refresher) Refreshes() uint64 { return r.refreshes.Load() }

// Triggered returns how many of those refreshes were forced by q-error
// feedback rather than the timer or an explicit Refresh call.
func (r *Refresher) Triggered() uint64 { return r.triggered.Load() }

// LiveFingerprint returns the fingerprint of the last snapshot this
// Refresher installed ("" before the first).
func (r *Refresher) LiveFingerprint() string {
	fp, _ := r.lastFP.Load().(string)
	return fp
}

// live resolves the fingerprint the trigger should treat as current.
func (r *Refresher) live() string {
	if r.cfg.Live != nil {
		return r.cfg.Live()
	}
	return r.LiveFingerprint()
}

// ShouldTrigger reports whether the q-error feedback currently justifies a
// refresh: some node's median q-error over its last Window executions under
// the live fingerprint exceeds the threshold. It ignores the cooldown — Run
// applies that — so tests and admin endpoints can inspect the raw signal.
func (r *Refresher) ShouldTrigger() (string, bool) {
	if r.cfg.QErrorThreshold <= 0 {
		return "", false
	}
	live := r.live()
	for _, e := range r.cfg.Feedback() {
		if live != "" && e.Fingerprint != live {
			continue
		}
		if m := e.MedianRecent(r.cfg.Window); m > r.cfg.QErrorThreshold {
			return e.Node, true
		}
	}
	return "", false
}

// Run drives the refresh loop until ctx is cancelled: a timed refresh every
// Interval (if positive), and between ticks a CheckInterval-paced watch of
// the q-error feedback that refreshes (at most once per Cooldown) when
// ShouldTrigger fires. Run does not perform an initial refresh; the caller
// installs the first snapshot when it boots.
func (r *Refresher) Run(ctx context.Context) {
	check := time.NewTicker(r.cfg.CheckInterval)
	defer check.Stop()
	var timed <-chan time.Time
	if r.cfg.Interval > 0 {
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		timed = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-timed:
			r.Refresh()
		case <-check.C:
			if _, ok := r.ShouldTrigger(); !ok {
				continue
			}
			now := time.Now().UnixNano()
			last := r.lastAt.Load()
			if last != 0 && time.Duration(now-last) < r.cfg.Cooldown {
				continue
			}
			if !r.lastAt.CompareAndSwap(last, now) {
				continue
			}
			r.Refresh()
			// Counted once the snapshot is installed, so a reader that sees
			// Triggered() > 0 also sees the fresh fingerprint.
			r.triggered.Add(1)
		}
	}
}
