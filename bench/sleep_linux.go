package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open loop's due times are 1.25 ms apart on
// serve_hot; time.Sleep wakes a goroutine through the runtime's poller, which
// on an otherwise idle process is late by about half a millisecond (median,
// measured on the reference box) — more than the requests take. nanosleep(2)
// on the calling thread is late by under 0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up by a signal: go round again
	}
}
