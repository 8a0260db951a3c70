package nbschema_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nbschema"
)

// TestMetricsThroughPublicAPI opens a database with a metrics registry and
// checks that transaction traffic shows up in the snapshot and over HTTP.
func TestMetricsThroughPublicAPI(t *testing.T) {
	reg := nbschema.NewMetricsRegistry()
	db := nbschema.Open(nbschema.Options{
		LockTimeout: 200 * time.Millisecond,
		Metrics:     reg,
	})
	if db.Metrics() != reg {
		t.Fatal("DB.Metrics did not return the configured registry")
	}
	err := db.CreateTable("customer", []nbschema.Column{
		{Name: "id", Type: nbschema.Int},
		{Name: "name", Type: nbschema.String, Nullable: true},
		{Name: "zip", Type: nbschema.Int},
		{Name: "city", Type: nbschema.String, Nullable: true},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	seedCustomers(t, db)

	tx := db.Begin()
	if err := tx.Update("customer", []any{1}, []string{"name"}, []any{"updated"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	checks := map[string]int64{
		"engine.txn.begin":  3, // seed + update + abort
		"engine.txn.commit": 2,
		"engine.txn.abort":  1,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"wal.append", "engine.lock.acquire", "storage.insert", "storage.update"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s never counted", name)
		}
	}
	if h, ok := snap.Histograms["engine.txn.commit_latency"]; !ok || h.Count != 2 {
		t.Errorf("commit latency histogram = %+v, want 2 observations", h)
	}

	// Prometheus text exposition.
	srv := httptest.NewServer(nbschema.MetricsHandler(reg))
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "engine_txn_commit_total 2") {
		t.Errorf("prometheus output missing commit counter:\n%s", text)
	}
	if !strings.Contains(text, "engine_txn_commit_latency_bucket") {
		t.Errorf("prometheus output missing histogram buckets:\n%s", text)
	}

	// JSON exposition.
	res, err = srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var got nbschema.MetricsSnapshot
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	res.Body.Close()
	if got.Counters["engine.txn.commit"] != 2 {
		t.Errorf("json snapshot commit = %d, want 2", got.Counters["engine.txn.commit"])
	}
}

// TestTransformObservabilityThroughPublicAPI runs a split with a custom trace
// sink and checks trace, per-rule counts, progress and transform metrics from
// the public surface.
func TestTransformObservabilityThroughPublicAPI(t *testing.T) {
	reg := nbschema.NewMetricsRegistry()
	db := nbschema.Open(nbschema.Options{
		LockTimeout: 200 * time.Millisecond,
		Metrics:     reg,
	})
	err := db.CreateTable("customer", []nbschema.Column{
		{Name: "id", Type: nbschema.Int},
		{Name: "name", Type: nbschema.String, Nullable: true},
		{Name: "zip", Type: nbschema.Int},
		{Name: "city", Type: nbschema.String, Nullable: true},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 500; i++ {
		if err := tx.Insert("customer", i, "n", 1000+i%50, "c"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var streamed []nbschema.TraceEvent
	tr, err := db.Split(nbschema.SplitSpec{
		Source: "customer", Left: "customer_base", Right: "place",
		SplitOn: []string{"zip"}, RightOnly: []string{"city"},
	}, nbschema.TransformOptions{
		SyncThreshold: 16,
		Trace: nbschema.TraceFunc(func(ev nbschema.TraceEvent) {
			mu.Lock()
			streamed = append(streamed, ev)
			mu.Unlock()
			if ev.KindName == "phase" && ev.Phase == "propagating" {
				// One commit after population gives propagation an
				// iteration to count.
				tx := db.Begin()
				if err := tx.Insert("customer", 500, "n", 1000, "c"); err != nil {
					t.Error(err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	pr := tr.Progress()
	if pr.Phase != nbschema.PhaseDone || pr.Remaining != 0 || !pr.ETAValid {
		t.Errorf("final progress = %+v", pr)
	}
	if pr.InitialImageRows != 500 {
		t.Errorf("initial image rows = %d, want 500", pr.InitialImageRows)
	}

	trace := tr.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	mu.Lock()
	n := len(streamed)
	mu.Unlock()
	if n != len(trace) {
		t.Errorf("custom sink saw %d events, ring buffered %d", n, len(trace))
	}
	last := trace[len(trace)-1]
	if last.KindName != "done" {
		t.Errorf("last event %q, want done", last.KindName)
	}

	// The engine-level transform gauges/counters were wired too.
	snap := reg.Snapshot()
	if snap.Counters["core.iterations"] == 0 {
		t.Error("core.iterations never counted")
	}
	if snap.Gauges["core.running"] != 0 {
		t.Errorf("core.running = %d after completion, want 0", snap.Gauges["core.running"])
	}
}
