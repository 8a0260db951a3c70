package engine

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/fault"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// restartFromCheckpoint round-trips db through serialized log + snapshot.
func restartFromCheckpoint(t *testing.T, db *DB, snap []byte, defs ...*catalog.TableDef) *DB {
	t.Helper()
	var logBuf bytes.Buffer
	if _, err := db.Log().WriteTo(&logBuf); err != nil {
		t.Fatal(err)
	}
	var snapR io.Reader
	if snap != nil {
		snapR = bytes.NewReader(snap)
	}
	db2, _, err := RestartFromSnapshot(defs, &logBuf, snapR, Options{})
	if err != nil {
		t.Fatalf("RestartFromSnapshot: %v", err)
	}
	return db2
}

// sameTable asserts two databases hold identical rows for a table.
func sameTable(t *testing.T, a, b *DB, table string) {
	t.Helper()
	ta, tb := a.Table(table), b.Table(table)
	if ta == nil || tb == nil {
		t.Fatalf("table %s missing: %v %v", table, ta, tb)
	}
	rows := make(map[string]string)
	ta.Scan(func(row value.Tuple, _ wal.LSN) bool {
		rows[row.Encode()] = row.Encode()
		return true
	})
	count := 0
	tb.Scan(func(row value.Tuple, _ wal.LSN) bool {
		count++
		if _, ok := rows[row.Encode()]; !ok {
			t.Errorf("table %s: restarted copy has extra row %v", table, row)
		}
		return true
	})
	if count != len(rows) {
		t.Errorf("table %s: %d rows before, %d after", table, len(rows), count)
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	db := newTestDB(t)
	for i := int64(1); i <= 200; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "w", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	st, err := db.Checkpoint(&snap)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st.Begin == 0 || st.End <= st.Begin || st.Tables == 0 || st.Bytes != int64(snap.Len()) {
		t.Fatalf("stats = %+v (snap %d bytes)", st, snap.Len())
	}

	// Small delta after the checkpoint.
	const delta = 3
	for i := int64(1001); i < 1001+delta; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "d", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	rc := db2.RestoredCheckpoint()
	if rc == nil || rc.Begin != st.Begin || rc.End != st.End {
		t.Fatalf("RestoredCheckpoint = %+v, want %+v", rc, st)
	}
	if rc.Rows != 200 {
		t.Errorf("restored rows = %d, want 200", rc.Rows)
	}
	// The recovery bound: only the post-checkpoint operations replay.
	if n := db2.ReplayedRecords(); n > delta {
		t.Errorf("replayed %d operation records, want <= %d", n, delta)
	}
	sameTable(t, db, db2, "acct")
}

func TestCheckpointWithConcurrentWriters(t *testing.T) {
	// Writers keep committing while the checkpoint scans fuzzily; whatever
	// mixed image lands in the snapshot, restart must converge to the final
	// state.
	db := newTestDB(t)
	for i := int64(1); i <= 64; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "w", 0)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				id := 1 + (w*16+i)%64
				err := tx.Update("acct", key(id), []string{"balance"}, value.Tuple{value.Int(i)})
				if err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(int64(w))
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("Checkpoint under load: %v", err)
	}
	close(stop)
	wg.Wait()

	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	if db2.RestoredCheckpoint() == nil {
		t.Fatal("checkpoint not used")
	}
	sameTable(t, db, db2, "acct")
}

func TestCheckpointActiveTxnMarksCoverLosers(t *testing.T) {
	// A transaction active across the checkpoint is a loser; its pre-begin
	// operations must be found by redo (per-table marks reach below the
	// checkpoint begin) so the undo pass can roll them back.
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "committed", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loser := db.Begin()
	if err := loser.Insert("acct", acct(2, "loser", 2)); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(99)}); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	// Crash: the loser never ends.
	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	if db2.RestoredCheckpoint() == nil {
		t.Fatal("checkpoint not used")
	}
	if _, ok := db2.ReadCommitted("acct", key(2)); ok {
		t.Error("loser insert survived checkpoint restart")
	}
	row, ok := db2.ReadCommitted("acct", key(1))
	if !ok || row[2].AsInt() != 1 {
		t.Errorf("loser update not undone: %v %v", row, ok)
	}
}

func TestCheckpointTxnCommittingAfterCheckpoint(t *testing.T) {
	// A transaction straddling the checkpoint that does commit: its pre-begin
	// writes may or may not be in the fuzzy snapshot; the marks force them
	// through redo, whose guards absorb duplicates.
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(7, "straddle", 70)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("acct", key(7), []string{"balance"}, value.Tuple{value.Int(71)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	row, ok := db2.ReadCommitted("acct", key(7))
	if !ok || row[2].AsInt() != 71 {
		t.Errorf("straddling txn lost: %v %v", row, ok)
	}
}

func TestTornCheckpointFallsBackToFullReplay(t *testing.T) {
	db := newTestDB(t)
	for i := int64(1); i <= 50; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "x", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	torn := snap.Bytes()[:snap.Len()/2]
	db2 := restartFromCheckpoint(t, db, torn, acctDef(t))
	if db2.RestoredCheckpoint() != nil {
		t.Fatal("torn checkpoint was accepted")
	}
	if n := db2.ReplayedRecords(); n < 50 {
		t.Errorf("full replay expected, replayed only %d", n)
	}
	sameTable(t, db, db2, "acct")
}

func TestCorruptCheckpointFallsBackToFullReplay(t *testing.T) {
	db := newTestDB(t)
	for i := int64(1); i <= 50; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "x", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), snap.Bytes()...)
	bad[len(bad)/2] ^= 0x40
	db2 := restartFromCheckpoint(t, db, bad, acctDef(t))
	if db2.RestoredCheckpoint() != nil {
		t.Fatal("corrupt checkpoint was accepted")
	}
	sameTable(t, db, db2, "acct")
}

func TestCheckpointStreamNewestCompleteWins(t *testing.T) {
	db := newTestDB(t)
	var stream bytes.Buffer
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(&stream); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if err := tx.Insert("acct", acct(2, "b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st2, err := db.Checkpoint(&stream)
	if err != nil {
		t.Fatal(err)
	}
	// Append garbage as a torn third checkpoint: the reader must fall back
	// to the last complete one.
	stream.Write([]byte{0x4e, 0x42, 0x43, 0x50, 0x01, 0xff, 0x03})

	db2 := restartFromCheckpoint(t, db, stream.Bytes(), acctDef(t))
	rc := db2.RestoredCheckpoint()
	if rc == nil || rc.Begin != st2.Begin {
		t.Fatalf("RestoredCheckpoint = %+v, want begin %d", rc, st2.Begin)
	}
	sameTable(t, db, db2, "acct")
}

func TestRestartRejectsSchemaDisagreement(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	// Same table name, different column type: restart must fail fast with a
	// descriptive error, not silently reinterpret the snapshot.
	bad, err := catalog.NewTableDef("acct", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "owner", Type: value.KindInt, Nullable: true},
		{Name: "balance", Type: value.KindInt, Nullable: true},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	if _, err := db.Log().WriteTo(&logBuf); err != nil {
		t.Fatal(err)
	}
	_, _, err = RestartFromSnapshot([]*catalog.TableDef{bad}, &logBuf, bytes.NewReader(snap.Bytes()), Options{})
	if err == nil || !strings.Contains(err.Error(), "disagrees with the checkpoint") {
		t.Fatalf("err = %v, want schema disagreement", err)
	}
}

func TestRestartRejectsOpsAgainstUnknownTable(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	if _, err := db.Log().WriteTo(&logBuf); err != nil {
		t.Fatal(err)
	}
	_, _, err := RestartFrom(nil, &logBuf, Options{})
	if err == nil || !strings.Contains(err.Error(), "absent from the supplied schema") {
		t.Fatalf("err = %v, want unknown-table error", err)
	}
}

func TestAutomaticCheckpointTrigger(t *testing.T) {
	var mu sync.Mutex
	var streams []*bytes.Buffer
	opts := Options{
		LockTimeout:     200 * time.Millisecond,
		CheckpointEvery: 40,
		CheckpointSink: func() (io.WriteCloser, error) {
			mu.Lock()
			defer mu.Unlock()
			b := &bytes.Buffer{}
			streams = append(streams, b)
			return nopCloser{b}, nil
		},
	}
	db := New(opts)
	if err := db.CreateTable(acctDef(t)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 300; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "auto", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(streams)
		mu.Unlock()
		if n > 0 && db.ckptBusy.Load() == false && db.ckptLastLSN.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("automatic checkpoint never fired (streams=%d)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The last completed stream restores.
	mu.Lock()
	var snap []byte
	for _, s := range streams {
		if s.Len() > 0 {
			snap = append([]byte(nil), s.Bytes()...)
		}
	}
	mu.Unlock()
	if snap == nil {
		t.Fatal("no checkpoint bytes written")
	}
	db2 := restartFromCheckpoint(t, db, snap, acctDef(t))
	if db2.RestoredCheckpoint() == nil {
		t.Fatal("automatic checkpoint unusable")
	}
	sameTable(t, db, db2, "acct")
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestCheckpointFaultBetweenBeginAndEnd(t *testing.T) {
	// A crash between checkpoint-begin and checkpoint-end leaves a begin
	// record without its end: the snapshot footer is never sealed, so
	// restart must ignore it and fully replay.
	reg := fault.New()
	reg.Arm("engine.checkpoint.end", fault.Always(), fault.ErrorAction(nil))
	db := New(Options{LockTimeout: 200 * time.Millisecond, Faults: reg})
	if err := db.CreateTable(acctDef(t)); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Checkpoint err = %v, want injected", err)
	}
	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	if db2.RestoredCheckpoint() != nil {
		t.Fatal("unsealed checkpoint was accepted")
	}
	sameTable(t, db, db2, "acct")
}

func TestCheckpointFaultMidSnapshotWrite(t *testing.T) {
	// A crash mid-partition-write leaves a truncated snapshot body.
	reg := fault.New()
	reg.Arm("storage.snapshot.partition", fault.OnHit(2), fault.ErrorAction(nil))
	db := New(Options{LockTimeout: 200 * time.Millisecond, Faults: reg})
	if err := db.CreateTable(acctDef(t)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 30; i++ {
		tx := db.Begin()
		if err := tx.Insert("acct", acct(i, "p", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Checkpoint err = %v, want injected", err)
	}
	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	if db2.RestoredCheckpoint() != nil {
		t.Fatal("truncated snapshot was accepted")
	}
	sameTable(t, db, db2, "acct")
}

// TestCheckpointRacesSwitchoverSafely takes checkpoints while another
// goroutine flips a table's lifecycle state, as a switchover does while an
// automatic checkpoint runs. The snapshot must read the state under the
// catalog lock; run under -race, an unlocked read of the definition reports
// a data race here.
func TestCheckpointRacesSwitchoverSafely(t *testing.T) {
	db := newTestDB(t)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Catalog().SetState(catalog.StateChange{Name: "acct", State: catalog.StateDropping, DropAt: db.Log().End()}); err != nil {
				t.Error(err)
				return
			}
			if err := db.Catalog().SetState(catalog.StateChange{Name: "acct", State: catalog.StatePublic}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := db.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

// TestCheckpointSkipsHiddenTables: a hidden table is an unpublished
// transformation target, which a restart could only drop again, so the
// snapshot leaves it out and restart does not restore it.
func TestCheckpointSkipsHiddenTables(t *testing.T) {
	db := newTestDB(t)
	hidden, err := catalog.NewTableDef("target", []catalog.Column{
		{Name: "id", Type: value.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	hidden.State = catalog.StateHidden
	if err := db.CreateTable(hidden); err != nil {
		t.Fatal(err)
	}
	if err := db.Table("target").Insert(value.Tuple{value.Int(1)}, 0); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "ann", 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	st, err := db.Checkpoint(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 1 {
		t.Errorf("checkpoint wrote %d tables, want 1 (acct only)", st.Tables)
	}
	db2 := restartFromCheckpoint(t, db, snap.Bytes(), acctDef(t))
	if db2.RestoredCheckpoint() == nil {
		t.Fatal("checkpoint not restored")
	}
	if db2.Table("target") != nil {
		t.Error("hidden table restored from the checkpoint")
	}
	sameTable(t, db, db2, "acct")
}
