package engine

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// waitParkedOnLatch polls the goroutine stacks until some goroutine is
// blocked waiting inside Latch.AcquireShared.
func waitParkedOnLatch(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "(*Latch).AcquireShared") && strings.Contains(g, "(*Cond).Wait") {
				return
			}
		}
	}
	t.Fatal("operation never parked on the table latch")
}

// TestEntryChecksAccessUnderLatch parks each transactional entry point on the
// table latch while a switchover holds it exclusively, flips the table to
// dropping, and releases the latch — the non-blocking-abort sync window. An
// operation of a transaction the gate shuts out must be denied even though
// the table was public when it started waiting; an operation of an older
// transaction the gate lets through must succeed.
func TestEntryChecksAccessUnderLatch(t *testing.T) {
	seed := acct(1, "a", 1)
	ops := []struct {
		name  string
		run   func(tx *Txn, snap *Snap) error
		wrote func(db *DB) bool // the operation's effect is in storage
	}{
		{"Insert", func(tx *Txn, _ *Snap) error { return tx.Insert("acct", acct(2, "b", 2)) },
			func(db *DB) bool { _, ok := db.ReadCommitted("acct", key(2)); return ok }},
		{"Update", func(tx *Txn, _ *Snap) error {
			return tx.Update("acct", key(1), []string{"balance"}, value.Tuple{value.Int(2)})
		}, func(db *DB) bool { row, ok := db.ReadCommitted("acct", key(1)); return ok && row[2].AsInt() == 2 }},
		{"Delete", func(tx *Txn, _ *Snap) error { return tx.Delete("acct", key(1)) },
			func(db *DB) bool { _, ok := db.ReadCommitted("acct", key(1)); return !ok }},
		{"Get", func(tx *Txn, _ *Snap) error { _, err := tx.Get("acct", key(1)); return err }, nil},
		{"Snap.Get", func(_ *Txn, s *Snap) error { _, err := s.Get("acct", key(1)); return err }, nil},
		{"Snap.Scan", func(_ *Txn, s *Snap) error {
			return s.Scan("acct", func(value.Tuple) bool { return true })
		}, nil},
	}
	for _, op := range ops {
		for _, old := range []bool{false, true} {
			name := op.name + "/denied"
			if old {
				name = op.name + "/old-txn"
			}
			t.Run(name, func(t *testing.T) {
				db := newMVCCTestDB(t)
				setup := db.Begin()
				if err := setup.Insert("acct", seed); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, setup)
				tx := db.Begin()
				snap, err := db.BeginSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()

				latch := db.Latch("acct")
				latch.AcquireExclusive()
				done := make(chan error, 1)
				go func() { done <- op.run(tx, snap) }()
				waitParkedOnLatch(t)
				// Deny everyone (non-blocking abort), or only transactions
				// begun after the switchover (non-blocking commit).
				gate := wal.LSN(0)
				if old {
					gate = db.Log().End() + 1
				}
				if err := db.Catalog().SetState(catalog.StateChange{Name: "acct", State: catalog.StateDropping, DropAt: gate}); err != nil {
					t.Fatal(err)
				}
				latch.ReleaseExclusive()
				err = <-done

				if !old {
					if !errors.Is(err, ErrNoAccess) {
						t.Fatalf("err = %v, want ErrNoAccess", err)
					}
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					row, ok := db.ReadCommitted("acct", key(1))
					if n := db.Table("acct").Len(); n != 1 || !ok || !row.Equal(seed) {
						t.Fatalf("storage touched: %d rows, row 1 = %v", n, row)
					}
					return
				}
				if err != nil {
					t.Fatalf("old transaction denied: %v", err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if op.wrote != nil && !op.wrote(db) {
					t.Fatal("old transaction's write missing from storage")
				}
			})
		}
	}
}

// TestDropGateIsOneWrite races access checks of an old transaction against
// a table flipping between public and dropping-at-1000. Both states admit a
// transaction begun at LSN 1, so any denial means the check saw the new
// state beside a stale drop LSN.
func TestDropGateIsOneWrite(t *testing.T) {
	db := newTestDB(t)
	def, err := db.Catalog().Get("acct")
	if err != nil {
		t.Fatal(err)
	}
	cycles := 200_000
	if raceEnabled || testing.Short() {
		cycles = 20_000
	}
	var stop atomic.Bool
	var denials, checks int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if db.accessibleAt(def, 1) != nil {
				denials++
			}
			checks++
		}
	}()
	for i := 0; i < cycles; i++ {
		if err := db.Catalog().SetState(catalog.StateChange{Name: "acct", State: catalog.StateDropping, DropAt: 1000}); err != nil {
			t.Fatal(err)
		}
		if err := db.Catalog().SetState(catalog.StateChange{Name: "acct", State: catalog.StatePublic}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if denials != 0 {
		t.Fatalf("%d spurious denials in %d checks over %d switchover cycles", denials, checks, cycles)
	}
}
