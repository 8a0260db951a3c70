package engine

import (
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/storage"
	"nbschema/internal/value"
)

// newBenchDB builds a DB in the configuration the hot-path allocation
// budgets are pinned against: history, slow-txn log and observability off —
// the production fast path. The schema is the same three-column account
// table the engine tests use.
func newBenchDB(tb testing.TB, opts Options) *DB {
	tb.Helper()
	if opts.LockTimeout == 0 {
		opts.LockTimeout = 2 * time.Second
	}
	opts.TxnHistory = -1
	opts.SlowTxnThreshold = -1
	db := New(opts)
	def, err := catalog.NewTableDef("acct", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "owner", Type: value.KindString, Nullable: true},
		{Name: "balance", Type: value.KindInt, Nullable: true},
	}, []string{"id"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateTable(def); err != nil {
		tb.Fatal(err)
	}
	return db
}

func seedAccts(tb testing.TB, db *DB, n int) {
	tb.Helper()
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if err := tx.Insert("acct", acct(int64(i), "seed", int64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTxnGet is the read hot path: a transaction re-reading a key it
// already holds a shared lock on. Budget: 0 allocs/op (CI-gated) — the key
// encoding lands in the transaction scratch, the lock manager takes the
// already-holder fast path, and the row comes back shared, not cloned.
func BenchmarkTxnGet(b *testing.B) {
	db := newBenchDB(b, Options{})
	seedAccts(b, db, 128)
	tx := db.Begin()
	k := key(7)
	if _, err := tx.Get("acct", k); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Get("acct", k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}

// BenchmarkTxnInsert measures a fresh-key insert inside one long
// transaction: WAL record + one row clone + lock entry + heap install.
func BenchmarkTxnInsert(b *testing.B) {
	db := newBenchDB(b, Options{})
	tx := db.Begin()
	row := acct(0, "bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = value.Int(int64(i))
		if err := tx.Insert("acct", row); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}

// BenchmarkTxnUpdate measures a same-key, non-re-keying column update under
// an already-held exclusive lock.
func BenchmarkTxnUpdate(b *testing.B) {
	db := newBenchDB(b, Options{})
	seedAccts(b, db, 8)
	tx := db.Begin()
	k := key(3)
	cols := []string{"balance"}
	vals := value.Tuple{value.Int(0)}
	if err := tx.Update("acct", k, cols, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = value.Int(int64(i))
		if err := tx.Update("acct", k, cols, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}

// BenchmarkTxnScan measures a full fuzzy table scan with shared reads and
// pooled chunk buffers: steady state allocates nothing per scan.
func BenchmarkTxnScan(b *testing.B) {
	db := newBenchDB(b, Options{})
	const rows = 1024
	seedAccts(b, db, rows)
	tbl := db.Table("acct")
	n := 0
	fn := func(recs []storage.Record) { n += len(recs) }
	scan := func() {
		for pi := 0; pi < tbl.Partitions(); pi++ {
			tbl.FuzzyScanPartition(pi, 0, fn)
		}
	}
	scan() // warm the pooled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		scan()
	}
	b.StopTimer()
	if n != rows {
		b.Fatalf("scan saw %d rows, want %d", n, rows)
	}
}

// TestDisabledHistoryGetZeroAlloc pins the satellite guarantee behind the
// benchmarks: with the transaction event history disabled (TxnHistory < 0),
// a steady-state Get records no events and allocates nothing — the event
// structs (and their key strings) must not be built just to be dropped.
func TestDisabledHistoryGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := newBenchDB(t, Options{})
	seedAccts(t, db, 16)
	tx := db.Begin()
	k := key(5)
	if _, err := tx.Get("acct", k); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tx.Get("acct", k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Get with history disabled: %v allocs/op, want 0", allocs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
