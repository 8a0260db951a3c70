package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/lock"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// startRun launches tr.Run in the background.
func startRun(tr *Transformation) chan error {
	done := make(chan error, 1)
	go func() { done <- tr.Run(context.Background()) }()
	return done
}

func waitErr(t *testing.T, done chan error, d time.Duration) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("Run did not finish in time")
		return nil
	}
}

func TestNonBlockingAbortDoomsSourceTxns(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)

	// A transaction holding a lock on R when synchronization starts.
	victim := db.Begin()
	if err := victim.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("dead")}); err != nil {
		t.Fatal(err)
	}
	// An innocent transaction on an unrelated table survives.
	otherDef, err := catalog.NewTableDef("other", []catalog.Column{
		{Name: "id", Type: value.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(otherDef); err != nil {
		t.Fatal(err)
	}
	innocent := db.Begin()
	if err := innocent.Insert("other", value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}

	tr, op := newJoinOp(t, db, Config{Strategy: NonBlockingAbort, KeepSources: true})
	if err := waitErr(t, startRun(tr), 10*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Metrics().DoomedTxns != 1 {
		t.Errorf("DoomedTxns = %d, want 1", tr.Metrics().DoomedTxns)
	}
	// The victim was force-aborted: its update is not in T, and using the
	// handle reports the transaction is finished.
	if err := victim.Commit(); !errors.Is(err, engine.ErrTxnDone) {
		t.Errorf("victim commit err = %v", err)
	}
	rows := op.lookup(IndexRKey, value.Tuple{value.Int(1)})
	if len(rows) != 1 || rows[0][1].AsString() == "dead" {
		t.Errorf("victim's update leaked into T: %v", rows)
	}
	// The innocent transaction commits normally.
	if err := innocent.Commit(); err != nil {
		t.Errorf("innocent commit: %v", err)
	}
	assertConverged(t, op)
}

func TestNewTxnsUseTargetAfterSwitchover(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, _ := newJoinOp(t, db, Config{Strategy: NonBlockingAbort, KeepSources: true})
	if err := waitErr(t, startRun(tr), 10*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// New transactions are denied the sources and can read T.
	tx := db.Begin()
	if _, err := tx.Get("R", value.Tuple{value.Int(1)}); !errors.Is(err, engine.ErrNoAccess) {
		t.Errorf("source access err = %v", err)
	}
	if _, err := tx.Get("T", value.Tuple{value.Int(1), value.Int(10)}); err != nil {
		t.Errorf("target access: %v", err)
	}
	// And they can update T.
	if err := tx.Update("T", value.Tuple{value.Int(1), value.Int(10)},
		[]string{"b"}, value.Tuple{value.Str("updated")}); err != nil {
		t.Errorf("target update: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestShadowLocksBlockDirectAccessDuringDrain(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, _ := prepared(t, db, Config{Strategy: NonBlockingAbort})
	propagateAll(t, tr)

	// A source transaction updates r1; the propagator transfers its lock.
	victim := db.Begin()
	if err := victim.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("locked")}); err != nil {
		t.Fatal(err)
	}
	propagateAll(t, tr)
	tr.shadow.SetEnforce(true)
	if err := db.Catalog().SetState(catalog.StateChange{Name: "T", State: catalog.StatePublic}); err != nil {
		t.Fatal(err)
	}
	db.SetHooks(engine.Hooks{CheckLock: func(txn wal.TxnID, table string, key value.Tuple, mode lock.Mode) error {
		if table == "T" && tr.shadow.Enforcing() {
			return tr.shadow.Check(txn, nsKey(table, key.Encode()), lock.OriginT, mode)
		}
		return nil
	}})

	// The T record carrying r1 is shadow-locked: a direct write conflicts.
	newTxn := db.Begin()
	err := newTxn.Update("T", value.Tuple{value.Int(1), value.Int(10)},
		[]string{"b"}, value.Tuple{value.Str("clash")})
	if !errors.Is(err, lock.ErrShadowConflict) {
		t.Errorf("err = %v, want shadow conflict", err)
	}
	// An unrelated T record is free.
	if err := newTxn.Update("T", value.Tuple{value.Int(2), value.Int(20)},
		[]string{"b"}, value.Tuple{value.Str("fine")}); err != nil {
		t.Errorf("unrelated record: %v", err)
	}

	// After the victim aborts and the propagator processes the abort, the
	// shadow lock is released.
	if err := victim.Abort(); err != nil {
		t.Fatal(err)
	}
	propagateAll(t, tr)
	if err := newTxn.Update("T", value.Tuple{value.Int(1), value.Int(10)},
		[]string{"b"}, value.Tuple{value.Str("now ok")}); err != nil {
		t.Errorf("after release: %v", err)
	}
	if err := newTxn.Commit(); err != nil {
		t.Fatal(err)
	}
	db.ClearHooks()
}

func TestNonBlockingCommitLetsOldTxnsFinish(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)

	old := db.Begin()
	if err := old.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("v1")}); err != nil {
		t.Fatal(err)
	}

	tr, op := newJoinOp(t, db, Config{Strategy: NonBlockingCommit, KeepSources: true})
	done := startRun(tr)

	// Wait for the switchover, then continue the old transaction on the
	// (dropping) source and commit it.
	for tr.Phase() != PhaseDraining {
		if tr.Phase() == PhaseDone || tr.Phase() == PhaseAborted {
			t.Fatalf("transformation ended early: %v", tr.Phase())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := old.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("v2")}); err != nil {
		t.Fatalf("old txn update post-switchover: %v", err)
	}
	if err := old.Commit(); err != nil {
		t.Fatalf("old txn commit: %v", err)
	}
	if err := waitErr(t, done, 10*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The post-switchover update made it into T.
	rows := op.lookup(IndexRKey, value.Tuple{value.Int(1)})
	if len(rows) != 1 || rows[0][1].AsString() != "v2" {
		t.Errorf("T rows for r1 = %v", rows)
	}
	assertConverged(t, op)
}

func TestNonBlockingCommitMirrorsLocksToTarget(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	old := db.Begin()
	if _, err := old.Get("R", value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tr, op := newJoinOp(t, db, Config{Strategy: NonBlockingCommit, KeepSources: true})
	done := startRun(tr)
	for tr.Phase() != PhaseDraining {
		if tr.Phase() == PhaseDone || tr.Phase() == PhaseAborted {
			t.Fatalf("transformation ended early: %v", tr.Phase())
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The old transaction writes a source record post-switchover: the lock
	// must be mirrored onto T so a new transaction's direct write conflicts.
	if err := old.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("mine")}); err != nil {
		t.Fatalf("old txn: %v", err)
	}
	newTxn := db.Begin()
	err := newTxn.Update("T", value.Tuple{value.Int(1), value.Int(10)},
		[]string{"b"}, value.Tuple{value.Str("steal")})
	if !errors.Is(err, lock.ErrShadowConflict) && !errors.Is(err, lock.ErrTimeout) {
		t.Errorf("direct write err = %v, want conflict", err)
	}
	if err := newTxn.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, 10*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertConverged(t, op)
}

func TestBlockingCommitDrainsThenBlocks(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	holder := db.Begin()
	if err := holder.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("held")}); err != nil {
		t.Fatal(err)
	}
	tr, op := newJoinOp(t, db, Config{Strategy: BlockingCommit, KeepSources: true})
	done := startRun(tr)
	// The transformation must wait for the holder.
	select {
	case err := <-done:
		t.Fatalf("Run finished while a source lock was held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, done, 10*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The held update is in T; the sources reject everyone now.
	rows := op.lookup(IndexRKey, value.Tuple{value.Int(1)})
	if len(rows) != 1 || rows[0][1].AsString() != "held" {
		t.Errorf("T rows = %v", rows)
	}
	tx := db.Begin()
	if err := tx.Delete("R", value.Tuple{value.Int(1)}); !errors.Is(err, engine.ErrNoAccess) {
		t.Errorf("source access err = %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, op)
}

func TestSyncLatchWindowIsShort(t *testing.T) {
	db := newJoinDB(t)
	mustExec(t, db, func(tx *engine.Txn) error {
		for i := int64(0); i < 2000; i++ {
			if err := tx.Insert("R", rRow(i, "x", i%100)); err != nil {
				return err
			}
		}
		for i := int64(0); i < 100; i++ {
			if err := tx.Insert("S", sRowV(i, "y")); err != nil {
				return err
			}
		}
		return nil
	})
	tr, _ := newJoinOp(t, db, Config{Strategy: NonBlockingAbort, KeepSources: true})
	if err := waitErr(t, startRun(tr), 20*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := tr.Metrics()
	if m.SyncLatchDuration <= 0 {
		t.Fatal("latch window not measured")
	}
	// The paper reports < 1 ms; allow generous slack for CI noise but keep
	// the claim's order of magnitude (the latch covers only the final
	// propagation of a drained log tail).
	if m.SyncLatchDuration > 50*time.Millisecond {
		t.Errorf("sync latch window = %v, expected well under 50ms on a quiescent log", m.SyncLatchDuration)
	}
}
