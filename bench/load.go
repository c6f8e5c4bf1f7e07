package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// An op is one operation of a load phase.
type op struct {
	id   int64         // unique within the run; spans of the op carry it
	tmpl int           // index into the workload's pool
	due  time.Duration // open loop: offset from the phase start
	body []byte        // prepared request payload, when the op is a request
}

// An outcome is what performing one op produced.
type outcome struct {
	op       op
	start    time.Time     // when the op was actually started
	latency  time.Duration // from start (closed loop) or from the due time (open loop)
	lateness time.Duration // open loop: how long after its due time the op started
	ok       bool          // answered, 2xx and correct
	wrong    bool          // answered, but the reference disagrees
	err      string

	coalesced bool
	compileUS int64
	execUS    int64
	trace     []programSpan
}

// closedLoop runs clients workers for d: each performs its next op only after
// its previous one completed, so a slow system receives less load. next
// prepares worker w's seq-th op. It returns the outcomes and when the phase
// started. An op in flight at the deadline is completed and returned, but
// ends outside every window of the phase.
func closedLoop(clients int, d time.Duration, next func(w, seq int) op, do func(op) outcome) ([]outcome, time.Time) {
	var wg sync.WaitGroup
	per := make([][]outcome, clients)
	t0 := time.Now()
	deadline := t0.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				o := next(w, seq)
				start := time.Now()
				out := do(o)
				out.start, out.latency = start, time.Since(start)
				per[w] = append(per[w], out)
			}
		}(w)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, t0
}

// windows is how many equal slices a measured phase is cut into. A figure is
// the median over the slices, so a stall — a neighbour's burst, a long GC —
// moves one slice and not the figure.
const windows = 5

// minWindowSamples is the fewest samples a slice needs for its own p95: 200
// leave ten beyond it. A phase with fewer per slice is read as one sample.
const minWindowSamples = 200

// sampleCPU reads the CPU seconds of pid (0: this process) now and at every
// window boundary of a phase of length d that starts now. The returned
// function waits for the last reading and returns all windows+1 of them, or
// nil where /proc is not available.
func sampleCPU(pid int, d time.Duration) func() []float64 {
	t0 := time.Now()
	done := make(chan []float64, 1) // one send, received at most once
	go func() {
		var out []float64
		for i := 0; i <= windows; i++ {
			time.Sleep(time.Until(t0.Add(d * time.Duration(i) / windows)))
			v, ok := cpuSeconds(pid)
			if !ok {
				done <- nil
				return
			}
			out = append(out, v)
		}
		done <- out
	}()
	return func() []float64 { return <-done }
}

// A windowTally cuts a closed-loop phase that starts at t0 and lasts d into
// windows and counts completions into them by completion time; an op that
// completes after the phase's end is in no window.
type windowTally struct {
	t0   time.Time
	d    time.Duration
	n    [windows]int
	last [windows]time.Time // the window's last completion
}

// add counts one correct op that completed at end.
func (t *windowTally) add(end time.Time) {
	if w := int(end.Sub(t.t0) * windows / t.d); w >= 0 && w < windows {
		t.n[w]++
		if end.After(t.last[w]) {
			t.last[w] = end
		}
	}
}

// figures returns the median throughput (ops per second) over the windows
// and, given the CPU readings of sampleCPU, the median CPU milliseconds per
// op, and the ops counted. A window's length is taken from the last completion
// before it to its own last completion, so its throughput is not rounded to
// whole ops per nominal window.
func (t *windowTally) figures(cpu []float64) (opsPerSec, cpuMSPerOp float64, ops int) {
	var thr, cpuPer []float64
	from := t.t0
	for w, k := range t.n {
		ops += k
		if k == 0 {
			thr = append(thr, 0)
			continue
		}
		thr = append(thr, float64(k)/t.last[w].Sub(from).Seconds())
		from = t.last[w]
		if len(cpu) == windows+1 {
			cpuPer = append(cpuPer, (cpu[w+1]-cpu[w])*1e3/float64(k))
		}
	}
	return median(thr), median(cpuPer), ops
}

// closedFigures tallies the correct outcomes of a closed-loop phase that
// started at t0 and lasted d and returns the tally's figures.
func closedFigures(outs []outcome, t0 time.Time, d time.Duration, cpu []float64) (opsPerSec, cpuMSPerOp float64, ops int) {
	t := windowTally{t0: t0, d: d}
	for _, o := range outs {
		if o.ok {
			t.add(o.start.Add(o.latency))
		}
	}
	return t.figures(cpu)
}

// maxLatencyWindows caps the slices a latency percentile is the median over.
const maxLatencyWindows = 11

// windowedPercentile returns the p-th percentile of the successful outcomes'
// latencies in milliseconds: the median over slices of the phase of each
// slice's own percentile — as many slices as hold minWindowSamples each, an
// odd number of at most maxLatencyWindows — or the percentile of the whole
// phase when it is too short for three. Outcomes are sliced by their position
// in outs, which for an open loop is due-time order. perWindow is the smallest
// sample a reported percentile rests on.
func windowedPercentile(outs []outcome, p float64) (value float64, perWindow int) {
	all := latenciesMS(outs, nil)
	k := min(len(outs)/minWindowSamples, maxLatencyWindows)
	if k%2 == 0 {
		k--
	}
	if k < 3 {
		return percentile(all, p), len(all)
	}
	var per []float64
	perWindow = len(all)
	for w := 0; w < k; w++ {
		l := latenciesMS(outs[w*len(outs)/k:(w+1)*len(outs)/k], nil)
		per = append(per, percentile(l, p))
		perWindow = min(perWindow, len(l))
	}
	return median(per), perWindow
}

// openLoop sends the schedule regardless of how the system keeps up: op i is
// due at t0+schedule[i].due, clients workers take the ops in order, and each
// op is timed from its due time — so the wait a stall imposes on the ops
// queued behind it is charged to them, and how late the generator ran is
// reported per op. No op is started after end; those come back failed.
func openLoop(clients int, schedule []op, end time.Duration, do func(op) outcome) []outcome {
	out := make([]outcome, len(schedule))
	var nextIdx atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				o := schedule[i]
				due := t0.Add(o.due)
				sleepUntil(due)
				start := time.Now()
				if start.Sub(t0) > end {
					out[i] = outcome{op: o, start: start, err: "not sent by the end of the phase"}
					continue
				}
				r := do(o)
				r.start, r.lateness, r.latency = start, start.Sub(due), time.Since(due)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// fixedSchedule spaces n ops evenly at rate per second.
func fixedSchedule(n int, rate float64, mk func(i int) op) []op {
	s := make([]op, n)
	for i := range s {
		s[i] = mk(i)
		s[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return s
}
