package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// The running example mirrors Example 1 / Figure 3: a customer table
// T(id, name, zip, city) split on zip into R(id, name, zip) and S(zip, city).

func newSplitDB(t *testing.T) *engine.DB {
	return newSplitDBOpts(t, engine.Options{LockTimeout: 150 * time.Millisecond})
}

func newSplitDBOpts(t *testing.T, o engine.Options) *engine.DB {
	t.Helper()
	db := engine.New(o)
	def, err := catalog.NewTableDef("T", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString, Nullable: true},
		{Name: "zip", Type: value.KindInt},
		{Name: "city", Type: value.KindString, Nullable: true},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	return db
}

func tRow(id int64, name string, zip int64, city string) value.Tuple {
	return value.Tuple{value.Int(id), value.Str(name), value.Int(zip), value.Str(city)}
}

func seedSplit(t *testing.T, db *engine.DB) {
	t.Helper()
	mustExec(t, db, func(tx *engine.Txn) error {
		rows := []value.Tuple{
			tRow(1, "peter", 7050, "trondheim"),
			tRow(2, "mark", 5020, "bergen"),
			tRow(3, "gary", 50, "oslo"),
			tRow(4, "jen", 7050, "trondheim"),
		}
		for _, r := range rows {
			if err := tx.Insert("T", r); err != nil {
				return err
			}
		}
		return nil
	})
}

func splitSpec() SplitSpec {
	return SplitSpec{
		Source: "T", Left: "R", Right: "S",
		SplitOn: []string{"zip"}, RightOnly: []string{"city"},
	}
}

func newSplitOp(t *testing.T, db *engine.DB, cfg Config) (*Transformation, *splitOp) {
	t.Helper()
	tr, err := NewSplit(db, splitSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.op.(*splitOp)
}

func preparedSplit(t *testing.T, db *engine.DB, cfg Config) (*Transformation, *splitOp) {
	t.Helper()
	tr, op := newSplitOp(t, db, cfg)
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

// assertSplitConverged checks R = π_R(T), S = π_S(T) with correct counters.
func assertSplitConverged(t *testing.T, op *splitOp) {
	t.Helper()
	src := op.db.Table(op.spec.Source)
	wantR := make(map[string]value.Tuple)
	wantS := make(map[string]value.Tuple) // payload only
	wantCnt := make(map[string]int64)
	src.Scan(func(row value.Tuple, _ wal.LSN) bool {
		r := op.rPart(row.Clone())
		wantR[r.Project(op.rDef.PrimaryKey).Encode()] = r
		p := op.sPayload(row.Clone())
		k := value.Tuple(p[:len(op.splitT)]).Encode()
		wantS[k] = p
		wantCnt[k]++
		return true
	})

	gotR := op.rTbl.Rows()
	if len(gotR) != len(wantR) {
		t.Errorf("R has %d rows, want %d", len(gotR), len(wantR))
	}
	for k, w := range wantR {
		g, ok := gotR[k]
		if !ok {
			t.Errorf("R missing %v", w)
			continue
		}
		if !g.Equal(w) {
			t.Errorf("R row mismatch: got %v want %v", g, w)
		}
	}
	for k, g := range gotR {
		if _, ok := wantR[k]; !ok {
			t.Errorf("R spurious row %v", g)
		}
	}

	gotS := op.sTbl.Rows()
	if len(gotS) != len(wantS) {
		t.Errorf("S has %d rows, want %d", len(gotS), len(wantS))
	}
	for k, w := range wantS {
		g, ok := gotS[k]
		if !ok {
			t.Errorf("S missing %v", w)
			continue
		}
		if !value.Tuple(g[:len(op.sFromT)]).Equal(w) {
			t.Errorf("S payload mismatch: got %v want %v", g[:len(op.sFromT)], w)
		}
		if g[op.cntPos].AsInt() != wantCnt[k] {
			t.Errorf("S counter for %v = %d, want %d", w, g[op.cntPos].AsInt(), wantCnt[k])
		}
	}
	for k, g := range gotS {
		if _, ok := wantS[k]; !ok {
			t.Errorf("S spurious row %v", g)
		}
	}
}

func TestFigure3Example(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	propagateAll(t, tr)
	if op.rTbl.Len() != 4 {
		t.Errorf("R has %d rows, want 4", op.rTbl.Len())
	}
	if op.sTbl.Len() != 3 {
		t.Errorf("S has %d rows, want 3 distinct zips", op.sTbl.Len())
	}
	assertSplitConverged(t, op)
	// Two customers share zip 7050: counter must be 2.
	s, _, err := op.sTbl.Get(value.Tuple{value.Int(7050)})
	if err != nil || s[op.cntPos].AsInt() != 2 {
		t.Errorf("s7050 = %v, %v", s, err)
	}
}

func TestRule8Insert(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// New zip → new S record; shared zip → counter bump.
		if err := tx.Insert("T", tRow(5, "ann", 9000, "tromso")); err != nil {
			return err
		}
		return tx.Insert("T", tRow(6, "bo", 7050, "trondheim"))
	})
	propagateAll(t, tr)
	assertSplitConverged(t, op)
	s, _, _ := op.sTbl.Get(value.Tuple{value.Int(7050)})
	if s[op.cntPos].AsInt() != 3 {
		t.Errorf("counter = %d, want 3", s[op.cntPos].AsInt())
	}
	// Idempotence: replaying the whole log must not double-count.
	if _, _, _, err := tr.propagateRange(1, db.Log().End(), nil); err != nil {
		t.Fatal(err)
	}
	assertSplitConverged(t, op)
}

func TestRule9Delete(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// Deleting one of two 7050 customers decrements; deleting the lone
		// 5020 customer removes s5020 entirely.
		if err := tx.Delete("T", value.Tuple{value.Int(1)}); err != nil {
			return err
		}
		return tx.Delete("T", value.Tuple{value.Int(2)})
	})
	propagateAll(t, tr)
	assertSplitConverged(t, op)
	if _, _, err := op.sTbl.Get(value.Tuple{value.Int(5020)}); err == nil {
		t.Error("s5020 should be removed at counter 0")
	}
	s, _, _ := op.sTbl.Get(value.Tuple{value.Int(7050)})
	if s[op.cntPos].AsInt() != 1 {
		t.Errorf("counter = %d, want 1", s[op.cntPos].AsInt())
	}
}

func TestRule10UpdateRPart(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("T", value.Tuple{value.Int(1)}, []string{"name"}, value.Tuple{value.Str("petra")})
	})
	propagateAll(t, tr)
	assertSplitConverged(t, op)
	r, lsn, err := op.rTbl.Get(value.Tuple{value.Int(1)})
	if err != nil || r[op.tToR[1]].AsString() != "petra" {
		t.Errorf("r1 = %v, %v", r, err)
	}
	if lsn == 0 {
		t.Error("R LSN must advance")
	}
}

func TestRule11UpdateSPartNonSplit(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	// Update the city of the lone 50 zip (counter 1).
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("T", value.Tuple{value.Int(3)}, []string{"city"}, value.Tuple{value.Str("OSLO")})
	})
	propagateAll(t, tr)
	assertSplitConverged(t, op)
	s, _, _ := op.sTbl.Get(value.Tuple{value.Int(50)})
	if s[1].AsString() != "OSLO" {
		t.Errorf("s50 = %v", s)
	}
}

func TestRule11UpdateSplitAttribute(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	// Move customer 1 from 7050 to 5020: 7050 drops to 1, 5020 rises to 2.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("T", value.Tuple{value.Int(1)}, []string{"zip", "city"},
			value.Tuple{value.Int(5020), value.Str("bergen")})
	})
	propagateAll(t, tr)
	assertSplitConverged(t, op)
	s7050, _, _ := op.sTbl.Get(value.Tuple{value.Int(7050)})
	if s7050[op.cntPos].AsInt() != 1 {
		t.Errorf("7050 counter = %d", s7050[op.cntPos].AsInt())
	}
	s5020, _, _ := op.sTbl.Get(value.Tuple{value.Int(5020)})
	if s5020[op.cntPos].AsInt() != 2 {
		t.Errorf("5020 counter = %d", s5020[op.cntPos].AsInt())
	}

	// Move customer 3 (lone zip 50) to a brand new zip: s50 vanishes, the
	// new S record inherits the extracted city.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Update("T", value.Tuple{value.Int(3)}, []string{"zip"}, value.Tuple{value.Int(51)})
	})
	propagateAll(t, tr)
	assertSplitConverged(t, op)
	if _, _, err := op.sTbl.Get(value.Tuple{value.Int(50)}); err == nil {
		t.Error("s50 should be gone")
	}
	s51, _, _ := op.sTbl.Get(value.Tuple{value.Int(51)})
	if s51[1].AsString() != "oslo" {
		t.Errorf("s51 inherited city = %v", s51)
	}
}

func TestSplitAbortedTxnViaCLRs(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := preparedSplit(t, db, Config{})
	tx := db.Begin()
	if err := tx.Insert("T", tRow(9, "ghost", 7050, "trondheim")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("T", value.Tuple{value.Int(2)}, []string{"zip", "city"},
		value.Tuple{value.Int(9999), value.Str("nowhere")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	propagateAll(t, tr)
	assertSplitConverged(t, op)
}

func TestSplitSpecValidation(t *testing.T) {
	db := newSplitDB(t)
	cases := []struct {
		name string
		spec SplitSpec
	}{
		{"empty left", SplitSpec{Source: "T", Right: "S", SplitOn: []string{"zip"}}},
		{"no split attrs", SplitSpec{Source: "T", Left: "R", Right: "S"}},
		{"missing source", SplitSpec{Source: "ghost", Left: "R", Right: "S", SplitOn: []string{"zip"}}},
		{"bad split col", SplitSpec{Source: "T", Left: "R", Right: "S", SplitOn: []string{"zz"}}},
		{"bad moved col", SplitSpec{Source: "T", Left: "R", Right: "S", SplitOn: []string{"zip"}, RightOnly: []string{"zz"}}},
		{"split col moved", SplitSpec{Source: "T", Left: "R", Right: "S", SplitOn: []string{"zip"}, RightOnly: []string{"zip"}}},
		{"pk moved", SplitSpec{Source: "T", Left: "R", Right: "S", SplitOn: []string{"zip"}, RightOnly: []string{"id"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewSplit(db, c.spec, Config{}); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestSplitEndToEnd(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	tr, op := newSplitOp(t, db, Config{KeepSources: true})
	if err := tr.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertSplitConverged(t, op)
	for _, name := range []string{"R", "S"} {
		def, err := db.Catalog().Get(name)
		if err != nil || def.State != catalog.StatePublic {
			t.Errorf("%s state = %v, %v", name, def, err)
		}
	}
}

// chaosSplitWorkload mutates T randomly.
func chaosSplitWorkload(t *testing.T, db *engine.DB, seed int64, pace time.Duration, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(seed))
	zips := []int64{50, 5020, 7050, 9000, 1234}
	cityOf := func(zip int64) string { return names[zip%int64(len(names))] }
	for {
		select {
		case <-stop:
			return
		default:
		}
		if pace > 0 {
			time.Sleep(pace + time.Duration(rng.Intn(int(pace))))
		}
		tx := db.Begin()
		var err error
		for i := 0; i < 1+rng.Intn(3) && err == nil; i++ {
			id := rng.Int63n(300)
			zip := zips[rng.Intn(len(zips))]
			switch rng.Intn(6) {
			case 0, 1:
				err = tx.Insert("T", tRow(id, randName(rng), zip, cityOf(zip)))
			case 2:
				err = tx.Delete("T", value.Tuple{value.Int(id)})
			case 3:
				err = tx.Update("T", value.Tuple{value.Int(id)}, []string{"name"},
					value.Tuple{value.Str(randName(rng))})
			case 4, 5:
				// Move between zips, keeping city functionally dependent so
				// the consistent-data assumption holds.
				err = tx.Update("T", value.Tuple{value.Int(id)}, []string{"zip", "city"},
					value.Tuple{value.Int(zip), value.Str(cityOf(zip))})
			}
		}
		if err != nil || rng.Intn(8) == 0 {
			if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
				t.Errorf("abort: %v", aerr)
				return
			}
			continue
		}
		if cerr := tx.Commit(); cerr != nil && !errors.Is(cerr, engine.ErrTxnDoomed) && !errors.Is(cerr, engine.ErrTxnDone) {
			t.Errorf("commit: %v", cerr)
			return
		} else if errors.Is(cerr, engine.ErrTxnDoomed) {
			if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
				t.Errorf("abort doomed: %v", aerr)
				return
			}
		}
	}
}

func TestSplitConvergenceUnderConcurrentLoad(t *testing.T) {
	for _, strategy := range []SyncStrategy{NonBlockingAbort, NonBlockingCommit, BlockingCommit} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			db := newSplitDB(t)
			mustExec(t, db, func(tx *engine.Txn) error {
				for i := int64(0); i < 120; i++ {
					zip := []int64{50, 5020, 7050}[i%3]
					if err := tx.Insert("T", tRow(i, "init", zip, names[zip%int64(len(names))])); err != nil {
						return err
					}
				}
				return nil
			})
			tr, op := newSplitOp(t, db, Config{
				Strategy:      strategy,
				KeepSources:   true,
				Analyzer:      CountAnalyzer(16),
				MaxIterations: 500,
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go chaosSplitWorkload(t, db, int64(w)+int64(strategy)*10, 150*time.Microsecond, stop, &wg)
			}
			time.Sleep(20 * time.Millisecond)
			err := tr.Run(context.Background())
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			assertSplitConverged(t, op)
			if tr.Shadow().LockedKeys() != 0 {
				t.Errorf("shadow locks leaked: %d", tr.Shadow().LockedKeys())
			}
		})
	}
}
