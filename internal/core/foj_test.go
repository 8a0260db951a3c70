package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// The running example mirrors Figure 1: R(a, b, c) with key a, S(c, d) with
// key c, joined on c into T(a, b, c, d).

func newJoinDB(t *testing.T) *engine.DB {
	return newJoinDBOpts(t, engine.Options{LockTimeout: 150 * time.Millisecond})
}

func newJoinDBOpts(t *testing.T, o engine.Options) *engine.DB {
	t.Helper()
	db := engine.New(o)
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
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	return db
}

func rRow(a int64, b string, c int64) value.Tuple {
	return value.Tuple{value.Int(a), value.Str(b), value.Int(c)}
}

func sRowV(c int64, d string) value.Tuple {
	return value.Tuple{value.Int(c), value.Str(d)}
}

func mustExec(t *testing.T, db *engine.DB, f func(tx *engine.Txn) error) {
	t.Helper()
	tx := db.Begin()
	if err := f(tx); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func seedJoin(t *testing.T, db *engine.DB) {
	t.Helper()
	mustExec(t, db, func(tx *engine.Txn) error {
		for _, r := range []value.Tuple{rRow(1, "john", 10), rRow(2, "mary", 20), rRow(3, "kari", 10)} {
			if err := tx.Insert("R", r); err != nil {
				return err
			}
		}
		for _, s := range []value.Tuple{sRowV(10, "oslo"), sRowV(30, "bergen")} {
			if err := tx.Insert("S", s); err != nil {
				return err
			}
		}
		return nil
	})
}

func newJoinOp(t *testing.T, db *engine.DB, cfg Config) (*Transformation, *fojOp) {
	t.Helper()
	tr, err := NewFullOuterJoin(db, JoinSpec{
		Target: "T", Left: "R", Right: "S",
		On: [][2]string{{"c", "c"}},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.op.(*fojOp)
}

// prepared sets up target tables and the initial image without propagating.
func prepared(t *testing.T, db *engine.DB, cfg Config) (*Transformation, *fojOp) {
	t.Helper()
	tr, op := newJoinOp(t, db, cfg)
	if err := op.Prepare(); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	tr.cursor = db.Log().End() + 1
	tr.mu.Unlock()
	if _, err := op.Populate(func(int) {}); err != nil {
		t.Fatal(err)
	}
	return tr, op
}

// propagateAll redoes the whole outstanding log tail.
func propagateAll(t *testing.T, tr *Transformation) {
	t.Helper()
	if _, err := tr.catchUp(nil); err != nil {
		t.Fatalf("propagate: %v", err)
	}
}

// expectedFOJ recomputes FOJ(R, S) from current storage, including the
// presence flags, keyed like T's storage.
func expectedFOJ(t *testing.T, op *fojOp) map[string]value.Tuple {
	t.Helper()
	rTbl := op.db.Table(op.spec.Left)
	sTbl := op.db.Table(op.spec.Right)
	out := make(map[string]value.Tuple)
	sRows := make(map[string][]value.Tuple)
	sTbl.Scan(func(row value.Tuple, _ wal.LSN) bool {
		k := row.Project(op.sJoin).Encode()
		sRows[k] = append(sRows[k], row.Clone())
		return true
	})
	matched := make(map[string]bool)
	rTbl.Scan(func(row value.Tuple, _ wal.LSN) bool {
		k := row.Project(op.rJoin).Encode()
		if ss := sRows[k]; len(ss) > 0 {
			matched[k] = true
			for _, s := range ss {
				tRow := op.joinRow(row.Clone(), s, 0, 0)
				out[op.tKey(tRow).Encode()] = tRow
			}
		} else {
			tRow := op.rowFromR(row.Clone(), 0)
			out[op.tKey(tRow).Encode()] = tRow
		}
		return true
	})
	for k, ss := range sRows {
		if matched[k] {
			continue
		}
		for _, s := range ss {
			tRow := op.rowFromS(s, 0)
			out[op.tKey(tRow).Encode()] = tRow
		}
	}
	return out
}

// visible trims the hidden per-half LSN columns so rows can be compared
// against expectations computed without log positions.
func visible(op *fojOp, t value.Tuple) value.Tuple { return value.Tuple(t[:op.lsnR]) }

// assertConverged checks T == FOJ(R, S) exactly.
func assertConverged(t *testing.T, op *fojOp) {
	t.Helper()
	assertImage(t, op, expectedFOJ(t, op))
}

// assertImage checks T against an expected image keyed like T's storage.
func assertImage(t *testing.T, op *fojOp, want map[string]value.Tuple) {
	t.Helper()
	got := op.tTbl.Rows()
	if len(got) != len(want) {
		t.Errorf("T has %d rows, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("T missing row %v", w)
			continue
		}
		if !visible(op, g).Equal(visible(op, w)) {
			t.Errorf("T row mismatch:\n got %v\nwant %v", visible(op, g), visible(op, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("T has spurious row %v", g)
		}
	}
}

func TestFigure1Example(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	propagateAll(t, tr)

	// 3 R rows (two join with s10, one unmatched) + 1 unmatched S row.
	if op.tTbl.Len() != 4 {
		t.Fatalf("T has %d rows, want 4", op.tTbl.Len())
	}
	assertConverged(t, op)

	// Spot-check the three shapes: joined, r-only, s-only.
	rows := op.lookup(IndexJoin, value.Tuple{value.Int(10)})
	if len(rows) != 2 {
		t.Fatalf("join group 10 has %d rows", len(rows))
	}
	for _, row := range rows {
		if !op.hasR(row) || !op.hasS(row) || row[3].AsString() != "oslo" {
			t.Errorf("joined row wrong: %v", row)
		}
	}
	rows = op.lookup(IndexJoin, value.Tuple{value.Int(20)})
	if len(rows) != 1 || !op.hasR(rows[0]) || op.hasS(rows[0]) || !rows[0][3].IsNull() {
		t.Errorf("r-only row wrong: %v", rows)
	}
	rows = op.lookup(IndexJoin, value.Tuple{value.Int(30)})
	if len(rows) != 1 || op.hasR(rows[0]) || !op.hasS(rows[0]) || !rows[0][0].IsNull() {
		t.Errorf("s-only row wrong: %v", rows)
	}
}

func TestRule1InsertR(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})

	mustExec(t, db, func(tx *engine.Txn) error {
		// Joins with existing s30 (currently an s-only row: consumed).
		if err := tx.Insert("R", rRow(4, "nils", 30)); err != nil {
			return err
		}
		// Joins with s10, which is carried by two other rows already.
		if err := tx.Insert("R", rRow(5, "per", 10)); err != nil {
			return err
		}
		// No match at all.
		return tx.Insert("R", rRow(6, "siri", 99))
	})
	propagateAll(t, tr)
	assertConverged(t, op)

	// The s-only 30 row must have been consumed, not duplicated.
	rows := op.lookup(IndexJoin, value.Tuple{value.Int(30)})
	if len(rows) != 1 || !op.hasR(rows[0]) || !op.hasS(rows[0]) {
		t.Errorf("s30 group = %v", rows)
	}
}

func TestRule1Idempotent(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Insert("R", rRow(7, "dup", 10))
	})
	end := db.Log().End()
	propagateAll(t, tr)
	// Redo the same records again: rules must ignore them.
	if _, _, _, err := tr.propagateRange(1, end, nil); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, op)
}

func TestRule2InsertS(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// Fills both r-carriers of join 20... none: fills the single r2.
		if err := tx.Insert("S", sRowV(20, "tromso")); err != nil {
			return err
		}
		// No r matches: becomes an s-only row.
		return tx.Insert("S", sRowV(40, "molde"))
	})
	propagateAll(t, tr)
	assertConverged(t, op)

	rows := op.lookup(IndexJoin, value.Tuple{value.Int(20)})
	if len(rows) != 1 || !op.hasS(rows[0]) || rows[0][3].AsString() != "tromso" {
		t.Errorf("filled row wrong: %v", rows)
	}
}

func TestRule3DeleteR(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// r1 shares s10 with r3: plain delete.
		if err := tx.Delete("R", value.Tuple{value.Int(1)}); err != nil {
			return err
		}
		// r2 has no s: plain delete of t^2_null.
		return tx.Delete("R", value.Tuple{value.Int(2)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)

	// Now delete r3 — the last carrier of s10: s10 must survive as s-only.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Delete("R", value.Tuple{value.Int(3)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	rows := op.lookup(IndexJoin, value.Tuple{value.Int(10)})
	if len(rows) != 1 || op.hasR(rows[0]) || !op.hasS(rows[0]) || rows[0][3].AsString() != "oslo" {
		t.Errorf("preserved s10 = %v", rows)
	}
}

func TestRule4DeleteS(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// s10 is carried by r1 and r3: both detach.
		if err := tx.Delete("S", value.Tuple{value.Int(10)}); err != nil {
			return err
		}
		// s30 is an s-only row: the row disappears.
		return tx.Delete("S", value.Tuple{value.Int(30)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	for _, row := range op.lookup(IndexJoin, value.Tuple{value.Int(10)}) {
		if op.hasS(row) || !row[3].IsNull() {
			t.Errorf("detached row still carries s: %v", row)
		}
	}
}

func TestRule5UpdateRJoinAttribute(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})

	// Move r1 from join group 10 to 30 (which has an s-only row to consume).
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("R", value.Tuple{value.Int(1)}, []string{"c"}, value.Tuple{value.Int(30)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	rows := op.lookup(IndexJoin, value.Tuple{value.Int(30)})
	if len(rows) != 1 || !op.hasR(rows[0]) || !op.hasS(rows[0]) || rows[0][3].AsString() != "bergen" {
		t.Errorf("moved row = %v", rows)
	}

	// Move r3 away from 10 — the last carrier: s10 must be preserved.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("R", value.Tuple{value.Int(3)}, []string{"c"}, value.Tuple{value.Int(99)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	rows = op.lookup(IndexJoin, value.Tuple{value.Int(10)})
	if len(rows) != 1 || op.hasR(rows[0]) || !op.hasS(rows[0]) {
		t.Errorf("s10 not preserved: %v", rows)
	}
}

func TestRule5UpdateRPrimaryKey(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("R", value.Tuple{value.Int(1)}, []string{"a"}, value.Tuple{value.Int(100)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	if rows := op.lookup(IndexRKey, value.Tuple{value.Int(100)}); len(rows) != 1 {
		t.Errorf("rekeyed t^100 = %v", rows)
	}
	if rows := op.lookup(IndexRKey, value.Tuple{value.Int(1)}); len(rows) != 0 {
		t.Errorf("old t^1 still present: %v", rows)
	}
}

func TestRule6UpdateSJoinAttribute(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	// Move s10 to 20: carriers of 10 detach; r2 (join 20) gets it.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("S", value.Tuple{value.Int(10)}, []string{"c"}, value.Tuple{value.Int(20)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	rows := op.lookup(IndexJoin, value.Tuple{value.Int(20)})
	if len(rows) != 1 || !op.hasR(rows[0]) || !op.hasS(rows[0]) || rows[0][3].AsString() != "oslo" {
		t.Errorf("moved s row = %v", rows)
	}

	// Move s20 to 77 where no r exists: becomes s-only.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("S", value.Tuple{value.Int(20)}, []string{"c"}, value.Tuple{value.Int(77)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestRule7PlainUpdates(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		if err := tx.Update("R", value.Tuple{value.Int(1)}, []string{"b"}, value.Tuple{value.Str("johnny")}); err != nil {
			return err
		}
		// s10 is carried by two T rows: both must be updated.
		return tx.Update("S", value.Tuple{value.Int(10)}, []string{"d"}, value.Tuple{value.Str("OSLO")})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	for _, row := range op.lookup(IndexJoin, value.Tuple{value.Int(10)}) {
		if row[3].AsString() != "OSLO" {
			t.Errorf("s update not fanned out: %v", row)
		}
	}
}

func TestPropagationOfAbortedTxnViaCLRs(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := prepared(t, db, Config{})
	tx := db.Begin()
	if err := tx.Insert("R", rRow(50, "ghost", 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("S", value.Tuple{value.Int(10)}, []string{"d"}, value.Tuple{value.Str("wrong")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("R", value.Tuple{value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	propagateAll(t, tr)
	assertConverged(t, op)
	if rows := op.lookup(IndexRKey, value.Tuple{value.Int(50)}); len(rows) != 0 {
		t.Errorf("aborted insert visible in T: %v", rows)
	}
}

func TestFuzzyImageRepairedByPropagation(t *testing.T) {
	// Ops running between the fuzzy mark and population must be repaired by
	// propagation even though they may be partially present in the image.
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := newJoinOp(t, db, Config{})
	if err := op.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Fuzzy mark first (as the framework does), then a concurrent op, then
	// the population: the op may or may not be in the image.
	active := db.ActiveTxns()
	mark := db.Log().Append(&wal.Record{Type: wal.TypeFuzzyMark, Active: active})
	tr.mu.Lock()
	tr.cursor = mark
	tr.mu.Unlock()
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Insert("R", rRow(42, "during", 10))
	})
	if _, err := op.Populate(func(int) {}); err != nil {
		t.Fatal(err)
	}
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestJoinSpecValidation(t *testing.T) {
	db := newJoinDB(t)
	cases := []struct {
		name string
		spec JoinSpec
	}{
		{"empty target", JoinSpec{Left: "R", Right: "S", On: [][2]string{{"c", "c"}}}},
		{"no join attrs", JoinSpec{Target: "T", Left: "R", Right: "S"}},
		{"missing left", JoinSpec{Target: "T", Left: "nope", Right: "S", On: [][2]string{{"c", "c"}}}},
		{"missing right", JoinSpec{Target: "T", Left: "R", Right: "nope", On: [][2]string{{"c", "c"}}}},
		{"bad left col", JoinSpec{Target: "T", Left: "R", Right: "S", On: [][2]string{{"zz", "c"}}}},
		{"bad right col", JoinSpec{Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "zz"}}}},
		{"type mismatch", JoinSpec{Target: "T", Left: "R", Right: "S", On: [][2]string{{"b", "c"}}}},
		{"m2m needs separate key", JoinSpec{Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}}, ManyToMany: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewFullOuterJoin(db, c.spec, Config{}); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestColumnNameCollisionDisambiguated(t *testing.T) {
	db := engine.New(engine.Options{})
	r, _ := catalog.NewTableDef("R", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString, Nullable: true},
		{Name: "ref", Type: value.KindInt, Nullable: true},
	}, []string{"id"})
	s, _ := catalog.NewTableDef("S", []catalog.Column{
		{Name: "ref", Type: value.KindInt},
		{Name: "name", Type: value.KindString, Nullable: true}, // collides
	}, []string{"ref"})
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	tr, err := NewFullOuterJoin(db, JoinSpec{
		Target: "T", Left: "R", Right: "S", On: [][2]string{{"ref", "ref"}},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	op := tr.op.(*fojOp)
	if op.tDef.ColIndex("S_name") < 0 {
		t.Errorf("colliding column not disambiguated: %v", op.tDef.Columns)
	}
}

func TestEndToEndRunQuiescent(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, op := newJoinOp(t, db, Config{KeepSources: true})
	if err := tr.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Phase() != PhaseDone {
		t.Errorf("phase = %v", tr.Phase())
	}
	assertConverged(t, op)
	// The target is public now.
	def, err := db.Catalog().Get("T")
	if err != nil || def.State != catalog.StatePublic {
		t.Errorf("T state = %v, %v", def, err)
	}
	// Sources are kept but closed to new transactions.
	rDef, _ := db.Catalog().Get("R")
	if rDef.State != catalog.StateDropping {
		t.Errorf("R state = %v", rDef.State)
	}
	m := tr.Metrics()
	if m.InitialImageRows == 0 || m.TotalDuration == 0 {
		t.Errorf("metrics not filled: %+v", m)
	}
}

func TestEndToEndDropsSources(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, _ := newJoinOp(t, db, Config{})
	if err := tr.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := db.Catalog().Get("R"); err == nil {
		t.Error("R should be dropped")
	}
	if _, err := db.Catalog().Get("S"); err == nil {
		t.Error("S should be dropped")
	}
}

func TestTransformationAbortDropsTargets(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, _ := newJoinOp(t, db, Config{})
	tr.Abort()
	err := tr.Run(context.Background())
	if err == nil {
		t.Fatal("aborted Run should fail")
	}
	if tr.Phase() != PhaseAborted {
		t.Errorf("phase = %v", tr.Phase())
	}
	if _, err := db.Catalog().Get("T"); err == nil {
		t.Error("target should be dropped on abort")
	}
	// Sources untouched.
	if _, err := db.Catalog().Get("R"); err != nil {
		t.Error("source must survive the abort")
	}
}

func TestContextCancelAborts(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, _ := newJoinOp(t, db, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tr.Run(ctx); err == nil {
		t.Fatal("cancelled Run should fail")
	}
	if _, err := db.Catalog().Get("T"); err == nil {
		t.Error("target should be dropped on cancel")
	}
}

var _ = fmt.Sprintf
