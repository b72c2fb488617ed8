package main

import (
	"runtime"
	"syscall"
	"time"
)

// Go's timers wake a sleeper up to a millisecond late on Linux (the
// netpoller waits in whole milliseconds), so an open loop paced with
// time.Sleep sends its requests in bursts on millisecond ticks, and every
// latency timed from the schedule carries up to a millisecond of the
// generator's own lateness. A pacer sleeps in nanosleep on an OS thread of
// its own with the kernel's timer slack at its minimum, which wakes within
// a few tens of microseconds, without spinning a CPU the server needs.

const (
	prSetTimerSlack = 29 // prctl(2) options
	prGetTimerSlack = 30
)

type pacer struct{ slack uintptr }

// newPacer locks the calling goroutine to its OS thread; close undoes it.
func newPacer() *pacer {
	runtime.LockOSThread()
	slack, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return &pacer{slack: slack}
}

func (p *pacer) close() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, p.slack, 0)
	runtime.UnlockOSThread()
}

// sleepUntil returns at t, or at once if t has passed.
func (p *pacer) sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
