package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/obs"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

func TestFreshCacheMonotonicFrontier(t *testing.T) {
	log := wal.NewLog()
	now := time.Now().UnixNano()
	// LSN 1..6: begin, commit@t1, begin, commit@t2, untimestamped commit, noise.
	log.Append(&wal.Record{Txn: 1, Type: wal.TypeBegin})
	log.Append(&wal.Record{Txn: 1, Type: wal.TypeCommit, Time: now})
	log.Append(&wal.Record{Txn: 2, Type: wal.TypeBegin})
	log.Append(&wal.Record{Txn: 2, Type: wal.TypeCommit, Time: now + 1000})
	log.Append(&wal.Record{Txn: 3, Type: wal.TypeCommit}) // unstamped: no Time
	log.Append(&wal.Record{Txn: 4, Type: wal.TypeBegin})

	var c freshCache
	lsn, ts := c.oldest(log, 0, log.End())
	if lsn != 2 || ts != now {
		t.Fatalf("oldest = (%d, %d), want (2, %d)", lsn, ts, now)
	}
	// Unapplied cached entry is reused without rescanning.
	if lsn, _ = c.oldest(log, 1, log.End()); lsn != 2 {
		t.Fatalf("cached oldest = %d, want 2", lsn)
	}
	// Applying past it invalidates the cache and finds the next one.
	if lsn, ts = c.oldest(log, 2, log.End()); lsn != 4 || ts != now+1000 {
		t.Fatalf("after apply, oldest = (%d, %d), want (4, %d)", lsn, ts, now+1000)
	}
	// Applying past every timestamped commit: fresh, and the frontier is at
	// end so a repeat poll scans nothing.
	if lsn, _ = c.oldest(log, 5, log.End()); lsn != 0 {
		t.Fatalf("fresh target still reports oldest %d", lsn)
	}
	if lsn, _ = c.oldest(log, 5, log.End()); lsn != 0 {
		t.Fatalf("repeat poll reports oldest %d", lsn)
	}
	// New timestamped commit past the frontier is picked up.
	log.Append(&wal.Record{Txn: 5, Type: wal.TypeCommit, Time: now + 2000})
	if lsn, _ = c.oldest(log, 5, log.End()); lsn != 7 {
		t.Fatalf("new commit not found: oldest = %d, want 7", lsn)
	}
}

func TestNoteAppliedIsMonotonic(t *testing.T) {
	db := newSplitDB(t)
	tr, _ := newSplitOp(t, db, Config{})
	tr.noteApplied(5)
	tr.noteApplied(3) // stale publication from a slower worker must not regress
	if got := tr.appliedLSN.Load(); got != 5 {
		t.Fatalf("appliedLSN = %d, want 5", got)
	}
	tr.noteApplied(9)
	if got := tr.appliedLSN.Load(); got != 9 {
		t.Fatalf("appliedLSN = %d, want 9", got)
	}
}

// TestFreshnessWatermarksE2E runs a split against live traffic and checks the
// watermark arc: lag grows while commits pile up unapplied, the high-water
// mark advances with propagation, and a finished transformation reports a
// fresh target (lag zero) regardless of later source writes.
func TestFreshnessWatermarksE2E(t *testing.T) {
	reg := obs.NewRegistry()
	db := engine.New(engine.Options{LockTimeout: 150 * time.Millisecond, Obs: reg})
	def, err := catalog.NewTableDef("T", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString, Nullable: true},
		{Name: "zip", Type: value.KindInt},
		{Name: "city", Type: value.KindString, Nullable: true},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	const rows = 512
	mustExec(t, db, func(tx *engine.Txn) error {
		for i := int64(1); i <= rows; i++ {
			if err := tx.Insert("T", tRow(i, "n", i%7, "c")); err != nil {
				return err
			}
		}
		return nil
	})

	// Low priority slows population and propagation down enough that the
	// traffic loop below runs while the transformation is live.
	tr, err2 := NewSplit(db, splitSpec(), Config{LagSLO: time.Second, Priority: 0.05})
	if err2 != nil {
		t.Fatal(err2)
	}
	done := make(chan error, 1)
	go func() { done <- tr.Run(context.Background()) }()
	// Wait for the population cut before generating traffic; commits made
	// before it are covered by the initial image and carry no lag.
	for ph := tr.Phase(); ph == PhaseIdle || ph == PhasePreparing; ph = tr.Phase() {
		time.Sleep(100 * time.Microsecond)
	}

	// Traffic and freshness polling from the main goroutine until the run
	// ends: every commit here is timestamped and lands past the population
	// cut, so the watermark has something to lag on. Once both watermarks
	// have been observed the traffic stops — a closed-loop updater would
	// outrun a priority-0.05 transformation indefinitely.
	var sawLag, sawApplied atomic.Bool
	deadline := time.Now().Add(20 * time.Second)
	var trErr error
	for i := int64(0); ; i++ {
		select {
		case trErr = <-done:
		default:
			if (!sawLag.Load() || !sawApplied.Load()) && time.Now().Before(deadline) {
				tx := db.Begin()
				err := tx.Update("T", value.Tuple{value.Int(i%rows + 1)},
					[]string{"name"}, value.Tuple{value.Str("renamed")})
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					_ = tx.Abort() // lock conflicts with the transformation are fine
				}
			} else {
				time.Sleep(time.Millisecond) // drain: let the run finish
			}
			f := tr.Freshness()
			if f.Lag > 0 && !f.OldestUnappliedCommit.IsZero() {
				sawLag.Store(true)
			}
			if f.AppliedLSN > 0 {
				sawApplied.Store(true)
			}
			continue
		}
		break
	}
	if trErr != nil {
		t.Fatalf("Run: %v", trErr)
	}

	if !sawLag.Load() {
		t.Error("never observed a positive lag watermark during the run")
	}
	if !sawApplied.Load() {
		t.Error("applied-LSN high-water mark never advanced")
	}
	f := tr.Freshness()
	if f.Lag != 0 || f.Backlog != 0 {
		t.Errorf("terminal freshness = %+v, want lag 0, backlog 0", f)
	}
	if !tr.SwitchoverReady(0) {
		t.Error("finished transformation not switchover-ready at maxLag 0")
	}
	if f.AppliedLSN == 0 {
		t.Error("terminal freshness lost the applied-LSN high-water mark")
	}
	// The lag instrumentation fed the histogram: every propagated commit
	// record was measured.
	if h, ok := reg.Snapshot().Histograms["core.commit_lag"]; !ok || h.Count == 0 {
		t.Error("core.commit_lag histogram recorded nothing")
	}
}

// TestFreshnessSLOViolationTraced checks that a stale target and a hopeless
// SLO produce an EventFreshness trace event naming the violation: a prepared
// split with a timestamped commit past the population cut is measurably
// stale, so emitFreshness (what synchronize runs at the switchover decision)
// must report lag and the SLO breach.
func TestFreshnessSLOViolationTraced(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	ring := obs.NewRingSink(64)
	tr, _ := preparedSplit(t, db, Config{
		LagSLO: time.Nanosecond, // unattainable: any measurable lag violates
		Sink:   ring,
	})
	// A commit past the population cut: unapplied, timestamped, aging.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("T", value.Tuple{value.Int(1)}, []string{"name"}, value.Tuple{value.Str("x")})
	})
	time.Sleep(time.Millisecond) // let the unapplied commit age measurably
	tr.emitFreshness()

	var found *obs.Event
	for _, ev := range ring.Events() {
		if ev.Kind == obs.EventFreshness {
			found = &ev
			break
		}
	}
	if found == nil {
		t.Fatal("no EventFreshness logged")
	}
	if found.Duration <= 0 || found.Remaining == 0 {
		t.Errorf("freshness event shows no staleness: %+v", found)
	}
	if found.Err == "" {
		t.Errorf("freshness event names no SLO violation: %+v", found)
	}
}
