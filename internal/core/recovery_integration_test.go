package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// The paper's recovery story for transformations is radical simplicity:
// "Aborting the transformation simply means that log propagation is stopped,
// and that the transformed tables are deleted" (§6). These tests check that
// a crash + restart during a transformation loses nothing of the source
// data, and that the transformation can simply be run again.

func joinDefs(t *testing.T) []*catalog.TableDef {
	t.Helper()
	r, err := catalog.NewTableDef("R", []catalog.Column{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindString, Nullable: true},
		{Name: "c", Type: value.KindInt, Nullable: true},
	}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := catalog.NewTableDef("S", []catalog.Column{
		{Name: "c", Type: value.KindInt},
		{Name: "d", Type: value.KindString, Nullable: true},
	}, []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	return []*catalog.TableDef{r, s}
}

func TestCrashMidTransformationThenRetry(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	// Populate the targets and propagate some work, then "crash": targets
	// were never logged, so restart rebuilds only the sources.
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Insert("R", rRow(7, "survivor", 10))
	})
	propagateAll(t, tr)
	_ = op // the in-flight transformation state dies with the "crash"

	// Simulate the crash by serializing the log and restarting from it.
	var buf strings.Builder
	if _, err := db.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	replayed, err := wal.ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	db2, err := engine.Restart(joinDefs(t), replayed, engine.Options{LockTimeout: time.Second})
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// All committed source data survived.
	if row, ok := db2.ReadCommitted("R", value.Tuple{value.Int(7)}); !ok || row[1].AsString() != "survivor" {
		t.Fatalf("post-crash R row = %v, %v", row, ok)
	}
	// The transformation simply runs again on the recovered database.
	tr2, err := NewFullOuterJoin(db2, JoinSpec{
		Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}},
	}, Config{KeepSources: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Run(context.Background()); err != nil {
		t.Fatalf("re-run after crash: %v", err)
	}
	assertConverged(t, tr2.op.(*fojOp))
}

// TestRestartMidTransformationMatchesNeverTransformed crashes a
// transformation at its most entangled moment — fuzzy marks written, user
// operations propagated onto the targets, targets half populated — and
// checks that restarting the WAL yields sources identical to a database
// that never saw a transformation at all.
func TestRestartMidTransformationMatchesNeverTransformed(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)

	// Begin a transformation: targets prepared, initial image built. Mix in
	// user operations and propagate them so the targets hold both halves of
	// the paper's state: fuzzily-copied rows and log-propagated rows.
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		if err := tx.Insert("R", rRow(8, "during", 30)); err != nil {
			return err
		}
		return tx.Update("S", value.Tuple{value.Int(10)}, []string{"d"},
			value.Tuple{value.Str("trondheim")})
	})
	db.Log().Append(&wal.Record{Type: wal.TypeFuzzyMark, Active: db.ActiveTxns()})
	propagateAll(t, tr)
	// More user work after the last propagated position: at the crash, the
	// targets are missing it (half populated).
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Delete("R", value.Tuple{value.Int(2)})
	})
	// A loser: in flight at the crash, must be rolled back on restart.
	loser := db.Begin()
	if err := loser.Insert("R", rRow(9, "loser", 10)); err != nil {
		t.Fatal(err)
	}
	if op.tTbl.Len() == 0 {
		t.Fatal("targets unexpectedly empty before the crash")
	}

	var buf strings.Builder
	if _, err := db.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()

	// Restart into the full crashed schema (sources + hidden target), then
	// recover: the orphaned target must be dropped.
	hidden := op.tDef.Clone()
	db2, _, err := engine.RestartFrom(append(joinDefs(t), hidden),
		strings.NewReader(dump), engine.Options{LockTimeout: time.Second})
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	rep, err := Recover(context.Background(), db2, RecoverConfig{Targets: []string{"T"}})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.DroppedTargets) != 1 || rep.DroppedTargets[0] != "T" {
		t.Fatalf("DroppedTargets = %v", rep.DroppedTargets)
	}

	// Control: the same log restarted into a schema that never had a
	// transformation.
	db3, _, err := engine.RestartFrom(joinDefs(t), strings.NewReader(dump),
		engine.Options{LockTimeout: time.Second})
	if err != nil {
		t.Fatalf("control Restart: %v", err)
	}
	for _, src := range []string{"R", "S"} {
		got := db2.Table(src).Rows()
		want := db3.Table(src).Rows()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows recovered, control has %d", src, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || !g.Equal(w) {
				t.Errorf("%s row %q: got %v want %v", src, k, g, w)
			}
		}
	}
	// The loser insert was rolled back; committed work survived.
	if _, ok := db2.ReadCommitted("R", value.Tuple{value.Int(9)}); ok {
		t.Error("loser insert survived the restart")
	}
	if _, ok := db2.ReadCommitted("R", value.Tuple{value.Int(8)}); !ok {
		t.Error("committed mid-transformation insert lost")
	}
	if _, ok := db2.ReadCommitted("R", value.Tuple{value.Int(2)}); ok {
		t.Error("committed delete lost: row 2 still present")
	}
}

func TestAbortedTransformationLeavesNoTrace(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	logBefore := db.Log().End()
	tablesBefore := len(db.Catalog().List())

	tr, _ := newJoinOp(t, db, Config{})
	tr.Abort()
	if err := tr.Run(context.Background()); err == nil {
		t.Fatal("aborted Run should fail")
	}

	// No tables left behind...
	if got := len(db.Catalog().List()); got != tablesBefore {
		t.Errorf("tables = %d, want %d", got, tablesBefore)
	}
	// ...and the only log growth is transformation bookkeeping (fuzzy
	// marks), never data operations.
	for _, rec := range db.Log().Scan(logBefore+1, 0) {
		if rec.Type.IsOp() {
			t.Errorf("aborted transformation logged a data operation: %+v", rec)
		}
	}
	// A fresh transformation over the same spec succeeds.
	tr2, _ := newJoinOp(t, db, Config{KeepSources: true})
	if err := tr2.Run(context.Background()); err != nil {
		t.Fatalf("re-run: %v", err)
	}
}

// TestSplitReplayIdempotent mirrors the FOJ suffix-replay property for
// split: R-record LSNs gate every rule, so replaying any suffix of the log
// leaves R and S unchanged.
func TestSplitReplayIdempotent(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		if err := tx.Insert("T", tRow(10, "x", 7050, "trondheim")); err != nil {
			return err
		}
		if err := tx.Update("T", value.Tuple{value.Int(1)}, []string{"zip", "city"},
			value.Tuple{value.Int(5020), value.Str("bergen")}); err != nil {
			return err
		}
		return tx.Delete("T", value.Tuple{value.Int(3)})
	})
	propagateAll(t, tr)
	rBefore := op.rTbl.Rows()
	sBefore := op.sTbl.Rows()

	for _, from := range []wal.LSN{1, db.Log().End() / 2, db.Log().End()} {
		if _, _, _, err := tr.propagateRange(from, db.Log().End(), nil); err != nil {
			t.Fatalf("replay from %d: %v", from, err)
		}
	}
	rAfter := op.rTbl.Rows()
	sAfter := op.sTbl.Rows()
	if len(rBefore) != len(rAfter) || len(sBefore) != len(sAfter) {
		t.Fatalf("replay changed table sizes: R %d→%d, S %d→%d",
			len(rBefore), len(rAfter), len(sBefore), len(sAfter))
	}
	for k, w := range rBefore {
		if g, ok := rAfter[k]; !ok || !g.Equal(w) {
			t.Errorf("R changed on replay: %v vs %v", w, g)
		}
	}
	for k, w := range sBefore {
		if g, ok := sAfter[k]; !ok || !g.Equal(w) {
			t.Errorf("S changed on replay: %v vs %v", w, g)
		}
	}
	assertSplitConverged(t, op)
}
