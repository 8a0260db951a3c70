package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestIdlePropagationDoesNotFloodLog holds a transformation in its
// propagation loop with zero user traffic and checks the log stays put.
// Without compaction (FOJ) a range holding only the previous cycle's fuzzy
// mark still counts as applied work; if the loop treated it as busy, it would
// answer each mark with a fresh one, growing the log by roughly one record
// per 500µs for as long as synchronization was gated.
func TestIdlePropagationDoesNotFloodLog(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	var release atomic.Bool
	tr, _ := newJoinOp(t, db, Config{
		Analyzer: func(Analysis) bool { return release.Load() },
	})
	done := make(chan error, 1)
	go func() { done <- tr.Run(context.Background()) }()

	deadline := time.Now().Add(2 * time.Second)
	for tr.Phase() != PhasePropagating {
		if time.Now().After(deadline) {
			t.Fatal("transformation never reached the propagation phase")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the loop settle past the records the population phase left behind,
	// then measure pure idle time (~100 cycles at the 500µs idle pace).
	time.Sleep(10 * time.Millisecond)
	before := db.Log().End()
	time.Sleep(50 * time.Millisecond)
	growth := int(db.Log().End() - before)

	release.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if growth > 4 {
		t.Errorf("idle propagation grew the log by %d records in 50ms; want ~0", growth)
	}
}
