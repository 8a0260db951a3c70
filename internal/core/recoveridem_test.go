package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"nbschema/internal/engine"
)

// Recover idempotency (the paper leaves this implicit; the lifecycle log
// makes it checkable): calling Recover again — after a completed
// transformation, after a previous Recover, or concurrently with normal
// operation — must be a no-op, never a double drop of live targets.

// completedJoin runs a full-outer-join transformation to completion on a
// fresh database and returns the database.
func completedJoin(t *testing.T) *engine.DB {
	t.Helper()
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, err := NewFullOuterJoin(db, JoinSpec{
		Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}},
	}, Config{KeepSources: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return db
}

func assertRecoverNoop(t *testing.T, rep RecoverReport) {
	t.Helper()
	if rep.Orphaned || len(rep.DroppedTargets) != 0 || len(rep.ReopenedSources) != 0 ||
		rep.Rerun || rep.FinishedSwitchover {
		t.Fatalf("Recover was not a no-op: %+v", rep)
	}
}

// TestRecoverIdempotentOnLiveDB names a completed, live target in Targets:
// the logged transform-done record protects it on both calls.
func TestRecoverIdempotentOnLiveDB(t *testing.T) {
	db := completedJoin(t)
	want := db.Table("T").Len()
	if want == 0 {
		t.Fatal("transformation produced an empty target")
	}
	for i := 0; i < 2; i++ {
		rep, err := Recover(context.Background(), db, RecoverConfig{Targets: []string{"T"}})
		if err != nil {
			t.Fatalf("Recover #%d: %v", i+1, err)
		}
		assertRecoverNoop(t, rep)
		if got := db.Table("T"); got == nil || got.Len() != want {
			t.Fatalf("Recover #%d dropped or shrank the live target", i+1)
		}
	}
}

// TestRecoverIdempotentAfterCheckpointRestart restores a checkpoint taken
// after the transformation completed: the done record is covered, so the
// target survives repeated Recover calls. The same log restarted WITHOUT the
// checkpoint must drop the target — protection is precise, not blanket.
func TestRecoverIdempotentAfterCheckpointRestart(t *testing.T) {
	db := completedJoin(t)
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if _, err := db.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	defs := harvestDefs(t, db)
	opts := engine.Options{LockTimeout: 150 * time.Millisecond}

	db2, _, err := engine.RestartFromSnapshot(defs, strings.NewReader(dump), bytes.NewReader(snap.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if db2.RestoredCheckpoint() == nil {
		t.Fatal("checkpoint not restored")
	}
	want := db.Table("T").Len()
	for i := 0; i < 2; i++ {
		rep, err := Recover(context.Background(), db2, RecoverConfig{Targets: []string{"T"}})
		if err != nil {
			t.Fatalf("Recover #%d: %v", i+1, err)
		}
		assertRecoverNoop(t, rep)
		if got := db2.Table("T"); got == nil || got.Len() != want {
			t.Fatalf("Recover #%d dropped the checkpoint-restored target", i+1)
		}
	}

	// Control: a full-replay restart cannot trust the target (population is
	// not logged), so the same Recover call must drop it.
	db3, _, err := engine.RestartFrom(defs, strings.NewReader(dump), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(context.Background(), db3, RecoverConfig{Targets: []string{"T"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DroppedTargets) != 1 || rep.DroppedTargets[0] != "T" {
		t.Fatalf("full-replay restart did not drop the untrusted target: %+v", rep)
	}
	// And a second call after the drop is again a no-op, not an error.
	rep2, err := Recover(context.Background(), db3, RecoverConfig{Targets: []string{"T"}})
	if err != nil {
		t.Fatal(err)
	}
	assertRecoverNoop(t, rep2)
}
