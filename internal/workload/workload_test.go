package workload

import (
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/value"
)

func benchDB(t *testing.T, tables []string, keys int64) *engine.DB {
	t.Helper()
	db := engine.New(engine.Options{LockTimeout: 250 * time.Millisecond})
	for _, name := range tables {
		def, err := catalog.NewTableDef(name, []catalog.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "payload", Type: value.KindInt, Nullable: true},
		}, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := int64(0); i < keys; i++ {
			if err := tx.Insert(name, value.Tuple{value.Int(i), value.Int(0)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestRunnerCommitsTransactions(t *testing.T) {
	db := benchDB(t, []string{"a", "dummy"}, 500)
	cfg := Config{
		DB: db,
		Targets: []Target{
			{Table: "a", Keys: 500, Col: "payload", Weight: 0.2},
			{Table: "dummy", Keys: 500, Col: "payload", Weight: 0.8},
		},
		Clients: 4,
	}
	stats, err := Measure(cfg, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if stats.Txns == 0 {
		t.Fatal("no transactions committed")
	}
	if stats.Throughput <= 0 {
		t.Errorf("throughput = %v", stats.Throughput)
	}
	if stats.MeanRT <= 0 {
		t.Errorf("mean RT = %v", stats.MeanRT)
	}
}

func TestBetween(t *testing.T) {
	t0 := time.Now()
	a := Counters{Txns: 10, Aborts: 1, Deadlocks: 1, Timeouts: 0, LatencyNs: 1000, At: t0}
	b := Counters{Txns: 30, Aborts: 3, Deadlocks: 2, Timeouts: 1, LatencyNs: 5000, At: t0.Add(2 * time.Second)}
	s := Between(a, b)
	if s.Txns != 20 || s.Aborts != 2 {
		t.Errorf("window = %+v", s)
	}
	if s.Deadlocks != 1 || s.Timeouts != 1 {
		t.Errorf("deadlocks/timeouts = %d/%d, want 1/1", s.Deadlocks, s.Timeouts)
	}
	if s.Throughput != 10 {
		t.Errorf("throughput = %v, want 10/s", s.Throughput)
	}
	if s.MeanRT != 200 { // (5000-1000)/20 ns
		t.Errorf("meanRT = %v", s.MeanRT)
	}
	// Degenerate windows don't divide by zero.
	z := Between(a, Counters{Txns: 10, LatencyNs: 1000, At: t0})
	if z.Throughput != 0 || z.MeanRT != 0 {
		t.Errorf("zero window = %+v", z)
	}
}

// TestDeadlockAbortsCountedAndRetried drives many clients over a two-record
// table so lock-order inversions are constant; the detector's ErrDeadlock
// aborts must be counted under Deadlocks (not Timeouts) and retried like any
// other transient failure.
func TestDeadlockAbortsCountedAndRetried(t *testing.T) {
	db := benchDB(t, []string{"tiny"}, 2)
	cfg := Config{
		DB: db,
		Targets: []Target{
			{Table: "tiny", Keys: 2, Col: "payload", Weight: 1},
		},
		UpdatesPerTxn: 2,
		Clients:       8,
	}
	stats, err := Measure(cfg, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if stats.Txns == 0 {
		t.Fatal("no transactions committed under contention")
	}
	if stats.Deadlocks == 0 {
		t.Errorf("no deadlock aborts counted over %d txns / %d aborts", stats.Txns, stats.Aborts)
	}
	// With the detector on, contention resolves as deadlock aborts, not lock
	// timeouts: the 250ms test timeout would dwarf the measured window.
	if stats.Timeouts > stats.Deadlocks {
		t.Errorf("timeouts (%d) exceed deadlocks (%d); detector not firing", stats.Timeouts, stats.Deadlocks)
	}
	if stats.Deadlocks > stats.Aborts {
		t.Errorf("deadlocks (%d) exceed total aborts (%d)", stats.Deadlocks, stats.Aborts)
	}
}

func TestUpdatesDistributedByWeight(t *testing.T) {
	db := benchDB(t, []string{"hot", "cold"}, 300)
	cfg := Config{
		DB: db,
		Targets: []Target{
			{Table: "hot", Keys: 300, Col: "payload", Weight: 0.9},
			{Table: "cold", Keys: 300, Col: "payload", Weight: 0.1},
		},
		Clients: 2,
		Seed:    42,
	}
	if _, err := Measure(cfg, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Count log records per table: hot should dominate roughly 9:1.
	var hot, cold int
	for _, rec := range db.Log().Scan(1, 0) {
		switch rec.Table {
		case "hot":
			hot++
		case "cold":
			cold++
		}
	}
	if hot <= cold*3 {
		t.Errorf("weight skew not observed: hot=%d cold=%d", hot, cold)
	}
}

func TestClientsFor(t *testing.T) {
	if ClientsFor(16, 100) != 16 {
		t.Error("100% should be the calibrated count")
	}
	if ClientsFor(16, 50) != 8 {
		t.Error("50% of 16 should be 8")
	}
	if ClientsFor(4, 10) != 1 {
		t.Error("floor is one client")
	}
}

func TestCalibrateReturnsSomething(t *testing.T) {
	db := benchDB(t, []string{"a"}, 200)
	cfg := Config{
		DB:      db,
		Targets: []Target{{Table: "a", Keys: 200, Col: "payload", Weight: 1}},
	}
	n, err := Calibrate(cfg, 4, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if n < 1 || n > 4 {
		t.Errorf("calibrated clients = %d", n)
	}
}

func TestFallbackSwitch(t *testing.T) {
	db := benchDB(t, []string{"old", "new"}, 100)
	// Close "old" to everyone: clients must switch to "new".
	if err := db.Catalog().SetState(catalog.StateChange{Name: "old", State: catalog.StateDropping}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		DB: db,
		Targets: []Target{
			{Table: "old", Fallback: "new", Keys: 100, Col: "payload", Weight: 1},
		},
		Clients: 2,
	}
	stats, err := Measure(cfg, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if stats.Txns == 0 {
		t.Fatal("clients never recovered via fallback")
	}
}

func TestRunnerSurfacesRealErrors(t *testing.T) {
	db := benchDB(t, []string{"a"}, 10)
	cfg := Config{
		DB:      db,
		Targets: []Target{{Table: "a", Keys: 10, Col: "nonexistent", Weight: 1}},
		Clients: 1,
	}
	_, err := Measure(cfg, 20*time.Millisecond)
	if err == nil {
		t.Fatal("schema error should surface")
	}
}
