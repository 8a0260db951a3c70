package debug

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/core"
	"nbschema/internal/engine"
	"nbschema/internal/obs"
	"nbschema/internal/value"
)

func newDB(t *testing.T, opts engine.Options) (*engine.DB, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Obs = reg
	db := engine.New(opts)
	def, err := catalog.NewTableDef("t", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "v", Type: value.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	return db, reg
}

func get(t *testing.T, h *httptest.Server, path string) string {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, sb.String())
	}
	return sb.String()
}

func getJSON(t *testing.T, h *httptest.Server, path string, v any) {
	t.Helper()
	body := get(t, h, path)
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
	}
}

func TestDebugEndpoints(t *testing.T) {
	db, reg := newDB(t, engine.Options{LockTimeout: 2 * time.Second})
	srv := httptest.NewServer(Handler(Config{DB: db, Obs: reg}))
	defer srv.Close()

	// Index lists the endpoints.
	var index map[string]string
	getJSON(t, srv, "/debug", &index)
	for _, p := range []string{"/debug/txns", "/debug/locks", "/debug/waitsfor", "/debug/transform", "/debug/wal"} {
		if _, ok := index[p]; !ok {
			t.Errorf("index missing %s: %v", p, index)
		}
	}

	// One committed insert plus one live transaction holding a lock.
	setup := db.Begin()
	if err := setup.Insert("t", value.Tuple{value.Int(1), value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Update("t", value.Tuple{value.Int(1)}, []string{"v"}, value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}

	var txns struct {
		Active []engine.TxnInfo `json:"active"`
	}
	getJSON(t, srv, "/debug/txns", &txns)
	if len(txns.Active) != 1 || txns.Active[0].ID != tx.ID() {
		t.Fatalf("/debug/txns active = %+v, want txn %d", txns.Active, tx.ID())
	}
	if len(txns.Active[0].Held) == 0 {
		t.Errorf("/debug/txns: no held locks reported: %+v", txns.Active[0])
	}

	var locks struct {
		Entries int `json:"entries"`
		Locks   []struct {
			Table   string            `json:"table"`
			Holders map[string]string `json:"holders"`
		} `json:"locks"`
	}
	getJSON(t, srv, "/debug/locks", &locks)
	if locks.Entries == 0 {
		t.Fatalf("/debug/locks reports no entries while a lock is held")
	}

	var wf struct {
		Waiters []any   `json:"waiters"`
		Cycles  [][]int `json:"cycles"`
	}
	getJSON(t, srv, "/debug/waitsfor", &wf)
	if len(wf.Waiters) != 0 || len(wf.Cycles) != 0 {
		t.Errorf("/debug/waitsfor nonempty without contention: %+v", wf)
	}

	var w struct {
		EndLSN  int64 `json:"end_lsn"`
		Records int   `json:"records"`
		Appends int64 `json:"appends_total"`
	}
	getJSON(t, srv, "/debug/wal", &w)
	if w.EndLSN == 0 || w.Records == 0 || w.Appends == 0 {
		t.Errorf("/debug/wal not populated: %+v", w)
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugWaitsForDOTShowsLiveCycle(t *testing.T) {
	db, reg := newDB(t, engine.Options{LockTimeout: 2 * time.Second})
	// Keep the cycle alive long enough to observe it over HTTP: detection
	// off, timeout as backstop.
	db.Locks().SetDetection(false)
	srv := httptest.NewServer(Handler(Config{DB: db, Obs: reg}))
	defer srv.Close()

	setup := db.Begin()
	for i := int64(1); i <= 2; i++ {
		if err := setup.Insert("t", value.Tuple{value.Int(i), value.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	t1, t2 := db.Begin(), db.Begin()
	cols := []string{"v"}
	if err := t1.Update("t", value.Tuple{value.Int(1)}, cols, value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("t", value.Tuple{value.Int(2)}, cols, value.Tuple{value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	done1, done2 := make(chan error, 1), make(chan error, 1)
	go func() { _, err := t1.Get("t", value.Tuple{value.Int(2)}); done1 <- err }()
	go func() { _, err := t2.Get("t", value.Tuple{value.Int(1)}); done2 <- err }()

	// Wait for both edges, then fetch the DOT while the cycle exists.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if len(db.Locks().WaitsFor().Cycles()) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	dot := get(t, srv, "/debug/waitsfor?format=dot")
	e1 := fmt.Sprintf("%q -> %q", fmt.Sprintf("txn %d", t1.ID()), fmt.Sprintf("txn %d", t2.ID()))
	e2 := fmt.Sprintf("%q -> %q", fmt.Sprintf("txn %d", t2.ID()), fmt.Sprintf("txn %d", t1.ID()))
	if !strings.Contains(dot, "digraph waitsfor") ||
		!strings.Contains(dot, e1) || !strings.Contains(dot, e2) {
		t.Errorf("DOT missing cycle edges %s / %s:\n%s", e1, e2, dot)
	}
	if !strings.Contains(dot, "color=red") {
		t.Errorf("DOT does not highlight the cycle:\n%s", dot)
	}
	var wf struct {
		Cycles [][]uint64 `json:"cycles"`
	}
	getJSON(t, srv, "/debug/waitsfor", &wf)
	if len(wf.Cycles) != 1 {
		t.Errorf("/debug/waitsfor cycles = %+v, want one", wf.Cycles)
	}

	// The timeout backstop breaks the cycle; both sides settle.
	<-done1
	<-done2
	_ = t1.Abort()
	_ = t2.Abort()
}

func TestDebugTransformEndpoint(t *testing.T) {
	db, reg := newDB(t, engine.Options{})
	for _, name := range []string{"r", "s"} {
		def, err := catalog.NewTableDef(name, []catalog.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "x", Type: value.KindInt},
		}, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := core.NewFullOuterJoin(db, core.JoinSpec{
		Target: "rs", Left: "r", Right: "s", On: [][2]string{{"k", "k"}},
	}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(Config{
		DB:         db,
		Obs:        reg,
		Transforms: func() []*core.Transformation { return []*core.Transformation{tr} },
	}))
	defer srv.Close()

	var resp struct {
		Transformations []struct {
			Phase    string `json:"phase"`
			Progress struct {
				Remaining int `json:"remaining"`
			} `json:"progress"`
		} `json:"transformations"`
	}
	getJSON(t, srv, "/debug/transform", &resp)
	if len(resp.Transformations) != 1 {
		t.Fatalf("transformations = %+v, want one", resp.Transformations)
	}
	if resp.Transformations[0].Phase == "" {
		t.Errorf("phase not rendered: %+v", resp.Transformations[0])
	}
}
