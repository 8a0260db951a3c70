package core

import (
	"fmt"
	"testing"

	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// fakeNetKeyer keys records by their encoded primary key and fences records
// whose key the test registered as a fence.
type fakeNetKeyer struct {
	fence map[string]bool
}

func (f *fakeNetKeyer) netKey(rec *wal.Record) (string, bool) {
	k := rec.Key.Encode()
	if f.fence[k] {
		return "", false
	}
	return k, true
}

func srcOnly(table string) bool { return table == "T" }

func key(id int64) value.Tuple { return value.Tuple{value.Int(id)} }

func upd(lsn wal.LSN, txn wal.TxnID, id int64, cols []int, vals ...value.Value) *wal.Record {
	return &wal.Record{
		LSN: lsn, Txn: txn, Type: wal.TypeUpdate, Table: "T",
		Key: key(id), Cols: cols, New: value.Tuple(vals),
	}
}

func ins(lsn wal.LSN, txn wal.TxnID, id int64, row value.Tuple) *wal.Record {
	return &wal.Record{LSN: lsn, Txn: txn, Type: wal.TypeInsert, Table: "T", Key: key(id), Row: row}
}

func del(lsn wal.LSN, txn wal.TxnID, id int64, before value.Tuple) *wal.Record {
	return &wal.Record{LSN: lsn, Txn: txn, Type: wal.TypeDelete, Table: "T", Key: key(id), Row: before}
}

func end(lsn wal.LSN, txn wal.TxnID) *wal.Record {
	return &wal.Record{LSN: lsn, Txn: txn, Type: wal.TypeCommit}
}

func runCompact(t *testing.T, recs []*wal.Record, fences ...int64) ([]*wal.Record, compactStats) {
	t.Helper()
	nk := &fakeNetKeyer{fence: make(map[string]bool)}
	for _, id := range fences {
		nk.fence[key(id).Encode()] = true
	}
	out, st := newCompactor().compact(recs, srcOnly, nk)
	if st.In != len(recs) || st.Out != len(out) {
		t.Fatalf("stats In/Out = %d/%d, want %d/%d", st.In, st.Out, len(recs), len(out))
	}
	return out, st
}

func TestCompactMergesUpdates(t *testing.T) {
	recs := []*wal.Record{
		&wal.Record{LSN: 1, Txn: 1, Type: wal.TypeBegin},
		upd(2, 1, 7, []int{1}, value.Str("a")),
		upd(3, 1, 7, []int{3}, value.Str("x")),
		end(4, 1),
		upd(5, 2, 7, []int{1}, value.Str("b")),
		end(6, 2),
	}
	out, _ := runCompact(t, recs)
	if len(out) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(out), out)
	}
	if out[0].Type != wal.TypeCommit || out[0].Txn != 1 {
		t.Errorf("out[0] = %+v, want txn 1 commit", out[0])
	}
	m := out[1]
	if m.Type != wal.TypeUpdate || m.LSN != 5 || m.Txn != 2 {
		t.Errorf("merged update = %+v, want LSN 5 txn 2", m)
	}
	want := map[int]value.Value{1: value.Str("b"), 3: value.Str("x")}
	if len(m.Cols) != 2 {
		t.Fatalf("merged cols = %v", m.Cols)
	}
	for i, c := range m.Cols {
		if !m.New[i].Equal(want[c]) {
			t.Errorf("col %d = %v, want %v", c, m.New[i], want[c])
		}
	}
	if out[2].Type != wal.TypeCommit || out[2].Txn != 2 {
		t.Errorf("out[2] = %+v, want txn 2 commit", out[2])
	}
	// The inputs must not have been mutated.
	if len(recs[1].Cols) != 1 || len(recs[4].Cols) != 1 {
		t.Error("compaction mutated an input record")
	}
}

func TestCompactInsertDeleteAnnihilatesToDelete(t *testing.T) {
	row := tRow(7, "n", 5020, "bergen")
	recs := []*wal.Record{
		ins(1, 1, 7, row),
		upd(2, 1, 7, []int{1}, value.Str("m")),
		del(3, 1, 7, row),
		end(4, 1),
	}
	out, _ := runCompact(t, recs)
	if len(out) != 2 || out[0].OpType() != wal.TypeDelete || out[0].LSN != 3 {
		t.Fatalf("got %+v, want [delete@3, commit]", out)
	}
}

func TestCompactDeleteThenInsertKeepsBoth(t *testing.T) {
	row := tRow(7, "n", 5020, "bergen")
	recs := []*wal.Record{
		del(1, 1, 7, row),
		ins(2, 1, 7, row),
		end(3, 1),
	}
	out, _ := runCompact(t, recs)
	if len(out) != 3 || out[0].OpType() != wal.TypeDelete || out[1].OpType() != wal.TypeInsert {
		t.Fatalf("got %+v, want [delete, insert, commit]", out)
	}
}

func TestCompactDeleteInsertDeleteKeepsLastDelete(t *testing.T) {
	row := tRow(7, "n", 5020, "bergen")
	recs := []*wal.Record{
		del(1, 1, 7, row),
		ins(2, 1, 7, row),
		del(3, 1, 7, row),
		end(4, 1),
	}
	out, _ := runCompact(t, recs)
	if len(out) != 2 || out[0].OpType() != wal.TypeDelete || out[0].LSN != 3 {
		t.Fatalf("got %+v, want [delete@3, commit]", out)
	}
}

func TestCompactUpdatesAfterInsertKeptSeparate(t *testing.T) {
	// Updates never fold into a pending insert: if the initial population
	// raced ahead and the target row already exists, rule 8 no-ops and the
	// update must still fire on its own.
	row := tRow(7, "n", 5020, "bergen")
	recs := []*wal.Record{
		ins(1, 1, 7, row),
		upd(2, 1, 7, []int{1}, value.Str("m")),
		upd(3, 1, 7, []int{1}, value.Str("o")),
		end(4, 1),
	}
	out, _ := runCompact(t, recs)
	if len(out) != 3 {
		t.Fatalf("got %d records %+v, want [insert, update, commit]", len(out), out)
	}
	if out[0].OpType() != wal.TypeInsert || out[1].OpType() != wal.TypeUpdate || out[1].LSN != 3 {
		t.Fatalf("got %+v, want insert then update@3", out)
	}
}

func TestCompactFenceCutsRuns(t *testing.T) {
	recs := []*wal.Record{
		upd(1, 1, 7, []int{1}, value.Str("a")),
		upd(2, 1, 99, []int{1}, value.Str("fence")), // key 99 registered as fence
		upd(3, 1, 7, []int{1}, value.Str("b")),
		end(4, 1),
	}
	out, st := runCompact(t, recs, 99)
	if len(out) != 4 {
		t.Fatalf("got %d records %+v, want all 4 (no merge across fence)", len(out), out)
	}
	if st.Fences != 1 || st.FencedKeys != 1 {
		t.Errorf("stats = %+v, want Fences 1 FencedKeys 1", st)
	}
	if out[0].LSN != 1 || out[1].LSN != 2 || out[2].LSN != 3 {
		t.Errorf("order not preserved: %+v", out)
	}
}

// TestCompactDropsNoise: every record that is neither an operation, a
// consistency-checker record nor an end of transaction is dropped, without
// fencing — including the retired type codes 13 and 14 an older log may
// carry.
func TestCompactDropsNoise(t *testing.T) {
	recs := []*wal.Record{
		&wal.Record{LSN: 1, Txn: 1, Type: wal.TypeBegin},
		&wal.Record{LSN: 2, Type: wal.TypeFuzzyMark},
		&wal.Record{LSN: 3, Txn: 1, Type: wal.TypeUpdate, Table: "dummy", Key: key(1), Cols: []int{1}, New: value.Tuple{value.Str("x")}},
		&wal.Record{LSN: 4, Type: wal.Type(13), Mark: 3},
		&wal.Record{LSN: 5, Type: wal.Type(14), Mark: 3},
		&wal.Record{LSN: 6, Type: wal.TypeCheckpointEnd, Mark: 2},
		&wal.Record{LSN: 7, Type: wal.TypeTransformSwitch, Mark: 5},
		end(8, 1),
	}
	out, st := runCompact(t, recs)
	if len(out) != 1 || out[0].Type != wal.TypeCommit || st.Fences != 0 {
		t.Fatalf("got %+v (%d fences), want just the commit", out, st.Fences)
	}
}

// TestCompactedReplayMatchesRaw replays a scripted mixed history through a
// prepared split twice — raw and compacted — and checks the target images
// are identical.
func TestCompactedReplayMatchesRaw(t *testing.T) {
	images := make(map[string]map[string]value.Tuple) // mode -> table key -> row
	for _, mode := range []CompactionMode{CompactionOff, CompactionOn} {
		db := newSplitDB(t)
		seedSplit(t, db)
		tr, op := preparedSplit(t, db, Config{Compaction: mode, PropagateWorkers: 1})

		mustExec(t, db, func(tx *engine.Txn) error {
			// Update runs, annihilating insert+delete, delete+reinsert,
			// split-attribute change (a fence), and plain churn.
			if err := tx.Insert("T", tRow(10, "new", 50, "oslo")); err != nil {
				return err
			}
			if err := tx.Update("T", key(10), []string{"name"}, value.Tuple{value.Str("newer")}); err != nil {
				return err
			}
			if err := tx.Delete("T", key(10)); err != nil {
				return err
			}
			if err := tx.Update("T", key(1), []string{"name"}, value.Tuple{value.Str("p2")}); err != nil {
				return err
			}
			if err := tx.Update("T", key(1), []string{"name"}, value.Tuple{value.Str("p3")}); err != nil {
				return err
			}
			if err := tx.Update("T", key(2), []string{"zip", "city"}, value.Tuple{value.Int(50), value.Str("oslo")}); err != nil {
				return err
			}
			if err := tx.Update("T", key(2), []string{"name"}, value.Tuple{value.Str("m2")}); err != nil {
				return err
			}
			if err := tx.Delete("T", key(3)); err != nil {
				return err
			}
			if err := tx.Insert("T", tRow(3, "gary2", 7050, "trondheim")); err != nil {
				return err
			}
			return nil
		})

		if _, _, _, err := tr.propagateRange(1, db.Log().End(), nil); err != nil {
			t.Fatal(err)
		}
		assertSplitConverged(t, op)

		img := make(map[string]value.Tuple)
		for _, tbl := range []string{"R", "S"} {
			table := db.Table(tbl)
			table.Scan(func(row value.Tuple, _ wal.LSN) bool {
				img[tbl+"\x00"+row.Encode()] = row.Clone()
				return true
			})
		}
		images[map[CompactionMode]string{CompactionOff: "raw", CompactionOn: "compacted"}[mode]] = img

		if mode == CompactionOn {
			m := tr.Metrics()
			if m.CompactIn == 0 || m.CompactOut == 0 || m.CompactOut >= m.CompactIn {
				t.Errorf("compaction did not shrink the stream: in=%d out=%d", m.CompactIn, m.CompactOut)
			}
			if m.RecordsApplied != m.CompactOut {
				t.Errorf("RecordsApplied = %d, want CompactOut %d", m.RecordsApplied, m.CompactOut)
			}
			if m.RecordsScanned != m.CompactIn {
				t.Errorf("RecordsScanned = %d, want CompactIn %d", m.RecordsScanned, m.CompactIn)
			}
		}
	}
	raw, compacted := images["raw"], images["compacted"]
	if len(raw) != len(compacted) {
		t.Fatalf("image sizes differ: raw %d, compacted %d", len(raw), len(compacted))
	}
	for k, v := range raw {
		if cv, ok := compacted[k]; !ok || !cv.Equal(v) {
			t.Errorf("row %q differs: raw %v, compacted %v", k, v, cv)
		}
	}
}

// TestProgressReportsLiveApplied is the regression test for Progress()
// reporting applied: 0 throughout propagation: RecordsApplied must reflect
// work already done mid-propagation, not only after the run finishes.
func TestProgressReportsLiveApplied(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, _ := preparedSplit(t, db, Config{})
	for i := 0; i < 8; i++ {
		v := value.Str(fmt.Sprintf("n%d", i))
		mustExec(t, db, func(tx *engine.Txn) error {
			return tx.Update("T", key(int64(i%4+1)), []string{"name"}, value.Tuple{v})
		})
	}

	// Propagate only half the backlog: the transformation is still
	// mid-propagation, yet Progress must already show the applied records.
	end := db.Log().End()
	if _, _, _, err := tr.propagateRange(1, end/2, nil); err != nil {
		t.Fatal(err)
	}
	pr := tr.Progress()
	if pr.RecordsApplied == 0 {
		t.Error("Progress().RecordsApplied = 0 mid-propagation")
	}
	if pr.RecordsScanned == 0 {
		t.Error("Progress().RecordsScanned = 0 mid-propagation")
	}

	if _, _, _, err := tr.propagateRange(end/2+1, end, nil); err != nil {
		t.Fatal(err)
	}
	after := tr.Progress()
	if after.RecordsApplied <= pr.RecordsApplied {
		t.Errorf("RecordsApplied did not grow: %d -> %d", pr.RecordsApplied, after.RecordsApplied)
	}
	if after.RecordsApplied != tr.Metrics().RecordsApplied {
		t.Errorf("Progress applied %d != Metrics applied %d",
			after.RecordsApplied, tr.Metrics().RecordsApplied)
	}
}

func TestSplitNetKeyClassification(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	_, op := newSplitOp(t, db, Config{})
	if err := op.Prepare(); err != nil {
		t.Fatal(err)
	}

	row := tRow(7, "n", 5020, "bergen")
	cases := []struct {
		name  string
		rec   *wal.Record
		key   string
		fence bool
	}{
		{"insert", ins(1, 1, 7, row), key(7).Encode(), false},
		{"delete", del(2, 1, 7, row), key(7).Encode(), false},
		{"name-update", upd(3, 1, 7, []int{1}, value.Str("x")), key(7).Encode(), false},
		{"zip-update", upd(4, 1, 7, []int{2}, value.Int(50)), "", true},
		{"city-update", upd(5, 1, 7, []int{3}, value.Str("oslo")), "", true},
		{"pk-update", upd(6, 1, 7, []int{0}, value.Int(8)), "", true},
		{"payload-less-insert", &wal.Record{LSN: 7, Type: wal.TypeInsert, Table: "T", Key: key(7)}, "", true},
		{"cc-begin", &wal.Record{LSN: 8, Type: wal.TypeCCBegin}, "", true},
		{"cc-ok", &wal.Record{LSN: 9, Type: wal.TypeCCOK}, "", true},
	}
	for _, tc := range cases {
		gotKey, ok := op.netKey(tc.rec)
		if tc.fence {
			if ok {
				t.Errorf("%s: classified compactable, want fence", tc.name)
			}
		} else if !ok || gotKey != tc.key {
			t.Errorf("%s: key %q ok=%v, want %q", tc.name, gotKey, ok, tc.key)
		}
	}
}
