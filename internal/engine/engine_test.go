package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/lock"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New(Options{LockTimeout: 200 * time.Millisecond})
	def, err := catalog.NewTableDef("acct", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "owner", Type: value.KindString, Nullable: true},
		{Name: "balance", Type: value.KindInt, Nullable: true},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	return db
}

func acct(id int64, owner string, balance int64) value.Tuple {
	return value.Tuple{value.Int(id), value.Str(owner), value.Int(balance)}
}

func key(id int64) value.Tuple { return value.Tuple{value.Int(id)} }

func TestInsertCommitGet(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "ann", 100)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := tx.Get("acct", key(1))
	if err != nil || got[1].AsString() != "ann" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Visible to a later transaction.
	tx2 := db.Begin()
	got, err = tx2.Get("acct", key(1))
	if err != nil || got[2].AsInt() != 100 {
		t.Fatalf("Get after commit = %v, %v", got, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "ann", 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(42)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := tx.Get("acct", key(1))
	if got[2].AsInt() != 42 {
		t.Errorf("balance = %v", got[2])
	}
	if err := tx.Delete("acct", key(1)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tx.Get("acct", key(1)); err == nil {
		t.Error("deleted record still visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOperationErrors(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	defer func() {
		if err := tx.Abort(); err != nil {
			t.Error(err)
		}
	}()
	if err := tx.Insert("ghost", acct(1, "a", 1)); err == nil {
		t.Error("insert into missing table should fail")
	}
	if err := tx.Insert("acct", value.Tuple{value.Int(1)}); err == nil {
		t.Error("arity violation should fail")
	}
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("acct", acct(1, "b", 2)); !errors.Is(err, storage.ErrDuplicateKey) {
		t.Errorf("dup insert err = %v", err)
	}
	if err := tx.Update("acct", key(9), []string{"owner"}, value.Tuple{value.Str("x")}); err == nil {
		t.Error("update of missing record should fail")
	}
	if err := tx.Update("acct", key(1), []string{"ghostcol"}, value.Tuple{value.Str("x")}); err == nil {
		t.Error("update of missing column should fail")
	}
	if err := tx.Update("acct", key(1), []string{"owner"}, value.Tuple{}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tx.Delete("acct", key(9)); err == nil {
		t.Error("delete of missing record should fail")
	}
}

func TestAbortUndoesEverything(t *testing.T) {
	db := newTestDB(t)
	setup := db.Begin()
	if err := setup.Insert("acct", acct(1, "ann", 100)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Insert("acct", acct(2, "bob", 200)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if err := tx.Insert("acct", acct(3, "eve", 300)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("acct", key(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	check := db.Begin()
	defer func() {
		if err := check.Commit(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := check.Get("acct", key(3)); err == nil {
		t.Error("aborted insert survived")
	}
	got, err := check.Get("acct", key(1))
	if err != nil || got[2].AsInt() != 100 {
		t.Errorf("aborted update not undone: %v, %v", got, err)
	}
	got, err = check.Get("acct", key(2))
	if err != nil || got[1].AsString() != "bob" {
		t.Errorf("aborted delete not undone: %v, %v", got, err)
	}
}

func TestAbortWritesCLRsAndAbortRecord(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	var clrs, aborts int
	var lastUndoNext wal.LSN
	for _, rec := range db.Log().Scan(1, 0) {
		switch rec.Type {
		case wal.TypeCLR:
			clrs++
			lastUndoNext = rec.UndoNext
		case wal.TypeAbort:
			aborts++
		}
	}
	if clrs != 2 {
		t.Errorf("CLRs = %d, want 2", clrs)
	}
	if aborts != 1 {
		t.Errorf("abort records = %d, want 1", aborts)
	}
	// The last CLR compensates the first op; its UndoNext points at the
	// begin record.
	if lastUndoNext != 1 {
		t.Errorf("last UndoNext = %d, want 1 (begin)", lastUndoNext)
	}
}

func TestAbortUndoesRekeyingUpdate(t *testing.T) {
	db := newTestDB(t)
	setup := db.Begin()
	if err := setup.Insert("acct", acct(1, "ann", 100)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Update("acct", key(1), []string{"id"}, value.Tuple{value.Int(7)}); err != nil {
		t.Fatalf("rekeying update: %v", err)
	}
	if _, err := tx.Get("acct", key(7)); err != nil {
		t.Fatalf("rekeyed record missing: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check := db.Begin()
	if _, err := check.Get("acct", key(7)); err == nil {
		t.Error("rekeyed record should be gone after abort")
	}
	got, err := check.Get("acct", key(1))
	if err != nil || got[1].AsString() != "ann" {
		t.Errorf("original record not restored: %v, %v", got, err)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFinishedTxnRejectsEverything(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("acct", acct(1, "a", 1)); !errors.Is(err, ErrTxnDone) {
		t.Errorf("insert on finished txn err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("double commit err = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Errorf("abort after commit err = %v", err)
	}
}

func TestDoomedTxn(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	db.Doom(tx.ID())
	if !tx.Doomed() {
		t.Fatal("txn should be doomed")
	}
	if err := tx.Insert("acct", acct(2, "b", 2)); !errors.Is(err, ErrTxnDoomed) {
		t.Errorf("op on doomed txn err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDoomed) {
		t.Errorf("commit on doomed txn err = %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("doomed txn must be abortable: %v", err)
	}
	check := db.Begin()
	if _, err := check.Get("acct", key(1)); err == nil {
		t.Error("doomed txn's insert survived")
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestForceAbort(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.ForceAbort(tx.ID()); err != nil {
		t.Fatalf("ForceAbort: %v", err)
	}
	if db.ActiveCount() != 0 {
		t.Error("txn should be gone from active table")
	}
	// Idempotent.
	if err := db.ForceAbort(tx.ID()); err != nil {
		t.Errorf("second ForceAbort: %v", err)
	}
	// Unknown id is a no-op.
	if err := db.ForceAbort(9999); err != nil {
		t.Errorf("ForceAbort unknown: %v", err)
	}
}

func TestWriteConflictBlocksThenTimesOut(t *testing.T) {
	db := newTestDB(t)
	setup := db.Begin()
	if err := setup.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx1 := db.Begin()
	if err := tx1.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(10)}); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	err := tx2.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(20)})
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("conflicting update err = %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializedIncrements(t *testing.T) {
	db := newTestDB(t)
	setup := db.Begin()
	if err := setup.Insert("acct", acct(1, "a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Locks() // touch
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					tx := db.Begin()
					cur, err := tx.Get("acct", key(1))
					if err == nil {
						err = tx.Update("acct", key(1), []string{"balance"},
							value.Tuple{value.Int(cur[2].AsInt() + 1)})
					}
					if err == nil {
						if err := tx.Commit(); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
						break
					}
					if abortErr := tx.Abort(); abortErr != nil && !errors.Is(abortErr, ErrTxnDone) {
						t.Errorf("abort: %v", abortErr)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	check := db.Begin()
	got, err := check.Get("acct", key(1))
	if err != nil || got[2].AsInt() != workers*iters {
		t.Errorf("balance = %v, want %d", got, workers*iters)
	}
	if err := check.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTableStates(t *testing.T) {
	db := newTestDB(t)
	// Hidden table rejects access.
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
	tx := db.Begin()
	if err := tx.Insert("target", value.Tuple{value.Int(1)}); !errors.Is(err, ErrNoAccess) {
		t.Errorf("hidden table err = %v", err)
	}
	// Publish makes it accessible.
	if err := db.Catalog().SetState(catalog.StateChange{Name: "target", State: catalog.StatePublic}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("target", value.Tuple{value.Int(1)}); err != nil {
		t.Errorf("published table: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDroppingStateOldVsNewTxns(t *testing.T) {
	db := newTestDB(t)
	oldTxn := db.Begin()
	if err := oldTxn.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().SetState(catalog.StateChange{Name: "acct", State: catalog.StateDropping, DropAt: db.Log().End()}); err != nil {
		t.Fatal(err)
	}
	// The old transaction (begun before the switchover) may continue.
	if err := oldTxn.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(2)}); err != nil {
		t.Errorf("old txn on dropping table: %v", err)
	}
	// A new transaction is denied.
	newTxn := db.Begin()
	if err := newTxn.Insert("acct", acct(2, "b", 2)); !errors.Is(err, ErrNoAccess) {
		t.Errorf("new txn on dropping table err = %v", err)
	}
	if err := oldTxn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := newTxn.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveTxnsSnapshot(t *testing.T) {
	db := newTestDB(t)
	t1 := db.Begin()
	t2 := db.Begin()
	snap := db.ActiveTxns()
	if len(snap) != 2 {
		t.Fatalf("ActiveTxns = %v", snap)
	}
	for _, a := range snap {
		if a.First == 0 {
			t.Errorf("txn %d has no first LSN", a.ID)
		}
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := db.ActiveCount(); n != 0 {
		t.Errorf("ActiveCount = %d", n)
	}
}

func TestHooksCheckLockVeto(t *testing.T) {
	db := newTestDB(t)
	vetoed := errors.New("vetoed")
	var calls int
	db.SetHooks(Hooks{
		CheckLock: func(txn wal.TxnID, table string, key value.Tuple, mode lock.Mode) error {
			calls++
			if table == "acct" && mode == lock.Exclusive {
				return vetoed
			}
			return nil
		},
	})
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); !errors.Is(err, vetoed) {
		t.Errorf("veto err = %v", err)
	}
	if calls == 0 {
		t.Error("hook never called")
	}
	db.ClearHooks()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Errorf("after ClearHooks: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestHooksOnTxnEnd(t *testing.T) {
	db := newTestDB(t)
	var mu sync.Mutex
	ended := make(map[wal.TxnID]bool)
	db.SetHooks(Hooks{OnTxnEnd: func(txn wal.TxnID) {
		mu.Lock()
		ended[txn] = true
		mu.Unlock()
	}})
	t1 := db.Begin()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !ended[t1.ID()] || !ended[t2.ID()] {
		t.Errorf("OnTxnEnd missing: %v", ended)
	}
}

func TestLatchPausesOperations(t *testing.T) {
	db := newTestDB(t)
	setup := db.Begin()
	if err := setup.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	latch := db.Latch("acct")
	latch.AcquireExclusive()
	done := make(chan error, 1)
	go func() {
		tx := db.Begin()
		if err := tx.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(2)}); err != nil {
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("operation completed under exclusive latch: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	latch.ReleaseExclusive()
	if err := <-done; err != nil {
		t.Fatalf("after latch release: %v", err)
	}
}

func TestNumOpsAndIDs(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if tx.ID() == 0 {
		t.Error("txn ID should be nonzero")
	}
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(5)}); err != nil {
		t.Fatal(err)
	}
	if tx.NumOps() != 2 {
		t.Errorf("NumOps = %d", tx.NumOps())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if tx2.ID() <= tx.ID() {
		t.Error("txn IDs must increase")
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCommitted(t *testing.T) {
	db := newTestDB(t)
	if _, ok := db.ReadCommitted("acct", key(1)); ok {
		t.Error("missing record should not be found")
	}
	if _, ok := db.ReadCommitted("ghost", key(1)); ok {
		t.Error("missing table should not be found")
	}
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	// Fuzzy read sees uncommitted data — that is its contract.
	if row, ok := db.ReadCommitted("acct", key(1)); !ok || row[1].AsString() != "a" {
		t.Errorf("fuzzy read = %v, %v", row, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	if err := db.DropTable("acct"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("acct"); err == nil {
		t.Error("double drop should fail")
	}
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "a", 1)); err == nil {
		t.Error("insert into dropped table should fail")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexThroughDB(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	if err := tx.Insert("acct", acct(1, "ann", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("acct", "by_owner", []string{"owner"}, false); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	rows, _, err := db.Table("acct").LookupIndex("by_owner", value.Tuple{value.Str("ann")})
	if err != nil || len(rows) != 1 {
		t.Errorf("lookup = %v, %v", rows, err)
	}
	if err := db.CreateIndex("ghost", "x", []string{"a"}, false); err == nil {
		t.Error("index on missing table should fail")
	}
	if err := db.CreateIndex("acct", "bad", []string{"ghostcol"}, false); err == nil {
		t.Error("index on missing column should fail")
	}
}

func TestBeginLogsBeginRecord(t *testing.T) {
	db := newTestDB(t)
	tx := db.Begin()
	rec, err := db.Log().Get(1)
	if err != nil || rec.Type != wal.TypeBegin || rec.Txn != tx.ID() {
		t.Errorf("first record = %+v, %v", rec, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

var _ = fmt.Sprintf
