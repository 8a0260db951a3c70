package nbschema

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func customerSpec() TableSpec {
	return TableSpec{
		Name: "customer",
		Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "name", Type: String, Nullable: true},
			{Name: "zip", Type: Int},
			{Name: "city", Type: String, Nullable: true},
		},
		PrimaryKey: []string{"id"},
	}
}

func seedCustomers(t *testing.T, db *DB) {
	t.Helper()
	spec := customerSpec()
	if err := db.CreateTable(spec.Name, spec.Columns, spec.PrimaryKey...); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i, row := range [][]any{
		{int64(1), "peter", int64(7050), "trondheim"},
		{int64(2), "mark", int64(5020), "bergen"},
	} {
		if err := tx.Insert("customer", row...); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRestartRoundTrip(t *testing.T) {
	db := Open()
	seedCustomers(t, db)

	var buf strings.Builder
	if _, err := db.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}

	db2, cut, err := Restart(strings.NewReader(buf.String()), []TableSpec{customerSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if cut != nil {
		t.Fatalf("intact log reported corruption: %v", cut)
	}
	if n, _ := db2.Rows("customer"); n != 2 {
		t.Fatalf("restarted db has %d rows, want 2", n)
	}
}

// TestRestartHonoursOptions: a restarted database comes out of the same
// constructor as a freshly opened one, so the options that live above the
// engine — snapshot population, the freshness SLO, the telemetry sampler and
// the registry it implies — hold after Restart and RestartWithCheckpoint too.
func TestRestartHonoursOptions(t *testing.T) {
	src := Open()
	seedCustomers(t, src)
	var snap, log bytes.Buffer
	if _, err := src.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := src.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	opts := Options{SnapshotReads: true, HistoryInterval: time.Millisecond, LagSLO: 250 * time.Millisecond}
	tables := []TableSpec{customerSpec()}

	for name, restart := range map[string]func() (*DB, *WALCorruption, error){
		"Restart": func() (*DB, *WALCorruption, error) {
			return Restart(bytes.NewReader(log.Bytes()), tables, opts)
		},
		"RestartWithCheckpoint": func() (*DB, *WALCorruption, error) {
			return RestartWithCheckpoint(bytes.NewReader(log.Bytes()), bytes.NewReader(snap.Bytes()), tables, opts)
		},
	} {
		t.Run(name, func(t *testing.T) {
			db, _, err := restart()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Metrics() == nil || db.History() == nil {
				t.Fatalf("metrics registry %v, history sampler %v: HistoryInterval was dropped", db.Metrics(), db.History())
			}
			if cfg := (TransformOptions{}).config(db); cfg.LagSLO != opts.LagSLO || !cfg.SnapshotPopulate {
				t.Errorf("transformation config: LagSLO %v, SnapshotPopulate %v; want %v, true",
					cfg.LagSLO, cfg.SnapshotPopulate, opts.LagSLO)
			}
			tr, err := db.Split(SplitSpec{
				Source: "customer", Left: "customer_base", Right: "place",
				SplitOn: []string{"zip"}, RightOnly: []string{"city"},
			}, TransformOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := db.Metrics().Snapshot().Counters["storage.snapshot.chunk"]; n == 0 {
				t.Error("the split populated from a fuzzy scan, not from a snapshot")
			}
			for deadline := time.Now().Add(5 * time.Second); db.History().Taken() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the history sampler never ticked")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestPublicRestartLenientTruncatesTornTail(t *testing.T) {
	db := Open()
	seedCustomers(t, db)
	var buf strings.Builder
	if _, err := db.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	torn := buf.String()[:buf.Len()-3] // cut the final frame short

	// Strict restart refuses the log.
	if _, _, err := Restart(strings.NewReader(torn), []TableSpec{customerSpec()}); err == nil {
		t.Fatal("strict restart accepted a torn log")
	}
	// Lenient restart truncates and reports the cut.
	db2, cut, err := Restart(strings.NewReader(torn), []TableSpec{customerSpec()},
		Options{LenientWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if cut == nil || !cut.Torn() {
		t.Fatalf("cut = %v, want torn-tail report", cut)
	}
	if db2 == nil {
		t.Fatal("lenient restart returned no database")
	}
}

func TestPublicFaultInjection(t *testing.T) {
	reg := NewFaultRegistry()
	db := Open(Options{Faults: reg})
	seedCustomers(t, db)

	// Arm the generic storage insert point: the next insert fails with the
	// injected error, and the transaction can be rolled back normally.
	reg.Arm("storage.insert", FaultOnHit(1), FaultError(nil))
	tx := db.Begin()
	err := tx.Insert("customer", int64(3), "gary", int64(50), "oslo")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("insert error = %v, want injected fault", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	reg.Reset()

	tx = db.Begin()
	if err := tx.Insert("customer", int64(3), "gary", int64(50), "oslo"); err != nil {
		t.Fatalf("insert after disarm: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRecoverDropsOrphanedTargets(t *testing.T) {
	db := Open()
	seedCustomers(t, db)
	tr, err := db.Split(SplitSpec{
		Source: "customer", Left: "customer_base", Right: "place",
		SplitOn: []string{"zip"}, RightOnly: []string{"city"},
	}, TransformOptions{KeepSources: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate the post-crash restart: the log replays the source only; the
	// target tables exist in the reloaded schema but were never logged.
	var buf strings.Builder
	if _, err := db.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	db2, _, err := Restart(strings.NewReader(buf.String()), []TableSpec{
		customerSpec(),
		{Name: "customer_base", Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "name", Type: String, Nullable: true},
			{Name: "zip", Type: Int},
		}, PrimaryKey: []string{"id"}},
		{Name: "place", Columns: []Column{
			{Name: "zip", Type: Int},
			{Name: "city", Type: String, Nullable: true},
		}, PrimaryKey: []string{"zip"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db2.Recover(context.Background(), "customer_base", "place")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DroppedTargets) != 2 {
		t.Fatalf("DroppedTargets = %v, want both targets", rep.DroppedTargets)
	}
	for _, name := range db2.Tables() {
		if name != "customer" {
			t.Errorf("unexpected table %s after Recover", name)
		}
	}
	if n, _ := db2.Rows("customer"); n != 2 {
		t.Fatalf("customer has %d rows, want 2", n)
	}
}
