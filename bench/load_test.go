package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// An open loop times every op from its due time. When the server stalls on
// one op, the ops queued behind it are sent late; their latency must include
// that wait, and the lateness must be reported. One client and a fake server
// that holds the first op for 100 ms while 50 more fall due 1 ms apart.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	sched := fixedSchedule(51, 1000, func(i int) op { return op{id: int64(i)} })
	if sched[50].due != 50*time.Millisecond {
		t.Fatalf("op 50 due at %v, want 50ms", sched[50].due)
	}
	outs := openLoop(1, sched, time.Second, func(o op) outcome {
		if o.id == 0 {
			time.Sleep(stall)
		}
		return outcome{op: o, ok: true}
	})
	if len(outs) != len(sched) {
		t.Fatalf("%d outcomes for %d ops", len(outs), len(sched))
	}
	if outs[0].latency < stall || outs[0].lateness > 20*time.Millisecond {
		t.Errorf("stalled op: latency %v lateness %v", outs[0].latency, outs[0].lateness)
	}
	for _, i := range []int{1, 25, 50} {
		o := outs[i]
		wait := stall - sched[i].due // how long op i sat behind the stall
		if !o.ok || o.latency < wait || o.lateness < wait {
			t.Errorf("op %d (due %v): latency %v lateness %v, want both ≥ %v", i, sched[i].due, o.latency, o.lateness, wait)
		}
		if o.latency < o.lateness {
			t.Errorf("op %d: latency %v below its lateness %v", i, o.latency, o.lateness)
		}
	}
}

// Ops that cannot be started before the phase ends come back failed, never
// silently dropped.
func TestOpenLoopFailsUnsentOps(t *testing.T) {
	sched := fixedSchedule(10, 1000, func(i int) op { return op{id: int64(i)} })
	outs := openLoop(1, sched, 30*time.Millisecond, func(o op) outcome {
		time.Sleep(20 * time.Millisecond)
		return outcome{op: o, ok: true}
	})
	ok := okCount(outs)
	if ok < 1 || ok > 3 {
		t.Errorf("%d ops completed in a 30ms phase of 20ms ops, want 2 or so", ok)
	}
	for _, o := range outs[ok:] {
		if o.ok || o.err == "" {
			t.Errorf("op %d after the phase end: %+v, want a failure", o.op.id, o)
		}
	}
}

// A closed loop gives each client its next op only after the previous one
// completed.
func TestClosedLoopOneOpPerClientInFlight(t *testing.T) {
	var inflight, peak, total atomic.Int32
	t0 := time.Now()
	outs, start := closedLoop(2, 50*time.Millisecond,
		func(w, seq int) op { return op{id: int64(w*1000 + seq)} },
		func(o op) outcome {
			if n := inflight.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(2 * time.Millisecond)
			inflight.Add(-1)
			total.Add(1)
			return outcome{op: o, ok: true}
		})
	if peak.Load() > 2 {
		t.Errorf("%d ops in flight with 2 clients", peak.Load())
	}
	if len(outs) != int(total.Load()) || len(outs) < 10 {
		t.Errorf("%d outcomes, %d ops performed", len(outs), total.Load())
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || start.Before(t0) {
		t.Errorf("phase started %v ago, want ≥ 50ms", elapsed)
	}
	for _, o := range outs {
		if o.latency < 2*time.Millisecond {
			t.Errorf("op %d latency %v, below its 2ms service time", o.op.id, o.latency)
		}
	}
}

// A closed-loop phase's figures are medians over its windows: ops are counted
// into windows by completion time, an op that ends after the phase is in
// none, a failed op in none, and one slow window moves neither figure.
func TestClosedFiguresMedianOverWindows(t *testing.T) {
	t0 := time.Now()
	d := windows * time.Second
	var outs []outcome
	var cpu []float64
	for w := 0; w < windows; w++ {
		n := 100 // ops of 10 ms, back to back: 100 ops/s
		if w == 1 {
			n = 10 // a stall: ten ops of 100 ms
		}
		lat := time.Second / time.Duration(n)
		for i := 0; i < n; i++ {
			start := t0.Add(time.Duration(w)*time.Second + time.Duration(i)*lat)
			outs = append(outs, outcome{start: start, latency: lat - time.Microsecond, ok: true})
		}
		cpu = append(cpu, float64(w)*0.5) // half a CPU second per window
	}
	cpu = append(cpu, windows*0.5)
	outs = append(outs,
		outcome{start: t0.Add(d - time.Millisecond), latency: time.Second, ok: true}, // ends after the phase
		outcome{start: t0.Add(time.Millisecond), latency: time.Millisecond})          // failed
	thr, cpuPer, ops := closedFigures(outs, t0, d, cpu)
	if ops != 4*100+10 {
		t.Errorf("%d ops in windows, want 410", ops)
	}
	if thr < 99.9 || thr > 100.1 {
		t.Errorf("throughput %v ops/s, want the 100 of the four steady windows", thr)
	}
	if cpuPer < 4.99 || cpuPer > 5.01 {
		t.Errorf("%v CPU-ms per op, want 5 (500 ms over 100 ops)", cpuPer)
	}
	if _, cpuPer, _ := closedFigures(outs, t0, d, nil); cpuPer != 0 {
		t.Errorf("CPU per op %v without readings, want 0", cpuPer)
	}
}
