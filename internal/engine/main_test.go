package engine

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines its tests started are still
// running 3 s after the last test ends, and prints their stacks. Only the
// main goroutine may remain; nothing is allow-listed.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && !goroutinesSettle(3*time.Second, 1) {
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle waits up to d for at most limit goroutines to remain.
func goroutinesSettle(d time.Duration, limit int) bool {
	deadline := time.Now().Add(d)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines still running after the tests\n%s\n",
				runtime.NumGoroutine(), buf)
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
