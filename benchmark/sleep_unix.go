//go:build unix

package main

import (
	"syscall"
	"time"
)

// osSleep sleeps on the calling thread in the kernel, bypassing Go's timers:
// those can fire ten or more milliseconds late while the collector's idle
// workers occupy the processors, which is no way to keep a schedule.
func osSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // cut short by a signal: the caller re-reads the clock
}
