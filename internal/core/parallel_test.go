package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// splitCities maps each script zip to its one city, so the history keeps the
// functional dependency zip→city intact. An FD-violating history makes the S
// payload depend on which contributing T row is absorbed first — legitimately
// nondeterministic even for a fully serial run (paper §5.3) — which would
// drown the serial-vs-parallel comparison in noise.
var splitCities = map[int64]string{50: "oslo", 5020: "bergen", 7050: "trondheim", 9000: "molde"}

// applySplitHistory runs a deterministic random operation script against the
// split source through sequential transactions: inserts and deletes (two
// conflict keys each), zip+city updates (barriers — they touch S columns),
// name-only updates (the parallel-friendly class), and random aborts so CLRs
// land in the log too.
func applySplitHistory(t *testing.T, db *engine.DB, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zips := []int64{50, 5020, 7050, 9000}
	for i := 0; i < n; i++ {
		tx := db.Begin()
		id := rng.Int63n(40)
		zip := zips[rng.Intn(len(zips))]
		var err error
		switch rng.Intn(4) {
		case 0:
			err = tx.Insert("T", tRow(id, randName(rng), zip, splitCities[zip]))
		case 1:
			err = tx.Delete("T", value.Tuple{value.Int(id)})
		case 2:
			err = tx.Update("T", value.Tuple{value.Int(id)},
				[]string{"zip", "city"}, value.Tuple{value.Int(zip), value.Str(splitCities[zip])})
		case 3:
			err = tx.Update("T", value.Tuple{value.Int(id)},
				[]string{"name"}, value.Tuple{value.Str(randName(rng))})
		}
		if err != nil {
			if aerr := tx.Abort(); aerr != nil {
				t.Fatal(aerr)
			}
			continue
		}
		if rng.Intn(5) == 0 { // aborts exercise CLR propagation
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// propagateThrottled propagates the whole backlog through a real throttler,
// which is what enables the parallel dispatch path (propagateAll passes a nil
// throttler and deliberately stays serial).
func propagateThrottled(t *testing.T, tr *Transformation) {
	t.Helper()
	tr.mu.Lock()
	from := tr.cursor
	tr.mu.Unlock()
	end := tr.db.Log().End()
	if _, _, _, err := tr.propagateRange(from, end, newThrottler(tr)); err != nil {
		t.Fatalf("propagate: %v", err)
	}
	tr.mu.Lock()
	tr.cursor = end + 1
	tr.mu.Unlock()
}

// TestPropertyParallelPropagationMatchesSerial: for any random history, a
// split propagated with PropagateWorkers=8 produces byte-identical R and S
// images to the same history propagated with PropagateWorkers=1. The small
// BatchSize forces many parallel flushes instead of one big batch.
func TestPropertyParallelPropagationMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		run := func(workers int) (*splitOp, map[string]value.Tuple, map[string]value.Tuple) {
			db := newSplitDB(t)
			seedSplit(t, db)
			applySplitHistory(t, db, seed*17+3, 30) // history before population
			tr, op := preparedSplit(t, db, Config{PropagateWorkers: workers, BatchSize: 8})
			applySplitHistory(t, db, seed, 90) // history during propagation
			propagateThrottled(t, tr)
			return op, op.rTbl.Rows(), op.sTbl.Rows()
		}
		op, serialR, serialS := run(1)
		_, parallelR, parallelS := run(8)

		if len(serialR) != len(parallelR) || len(serialS) != len(parallelS) {
			return false
		}
		for k, w := range serialR {
			g, ok := parallelR[k]
			if !ok || !g.Equal(w) {
				return false
			}
		}
		for k, w := range serialS {
			g, ok := parallelS[k]
			// Visible payload and counter must match exactly; only the
			// hidden consistency flags (absent here) could ever differ.
			if !ok || !g.Equal(w) {
				return false
			}
		}
		_ = op
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestSplitConflictKeysClassification pins the conflict-key contract the
// parallel propagator depends on: which records parallelize under which keys
// and which must be barriers.
func TestSplitConflictKeysClassification(t *testing.T) {
	db := newSplitDB(t)
	seedSplit(t, db)
	_, op := preparedSplit(t, db, Config{})

	key := value.Tuple{value.Int(1)}
	row := tRow(1, "peter", 7050, "trondheim")

	cases := []struct {
		name    string
		rec     *wal.Record
		barrier bool
		want    []string // required key prefixes/values, order-insensitive
	}{
		{"cc begin", &wal.Record{Type: wal.TypeCCBegin, Key: value.Tuple{value.Int(7050)}}, true, nil},
		{"commit", &wal.Record{Type: wal.TypeCommit, Txn: 9}, false, []string{"txn\x009"}},
		{"abort", &wal.Record{Type: wal.TypeAbort, Txn: 9}, false, []string{"txn\x009"}},
		{"insert", &wal.Record{Type: wal.TypeInsert, Txn: 9, Table: "T", Key: key, Row: row},
			false, []string{"txn\x009", "r\x00", "s\x00"}},
		{"delete", &wal.Record{Type: wal.TypeDelete, Txn: 9, Table: "T", Key: key, Row: row},
			false, []string{"txn\x009", "r\x00", "s\x00"}},
		{"payload-less CLR delete",
			&wal.Record{Type: wal.TypeCLR, Redo: wal.TypeDelete, Txn: 9, Table: "T", Key: key}, true, nil},
		{"name-only update",
			&wal.Record{Type: wal.TypeUpdate, Txn: 9, Table: "T", Key: key,
				Cols: []int{1}, New: value.Tuple{value.Str("x")}},
			false, []string{"txn\x009", "r\x00"}},
		{"zip update (S column)",
			&wal.Record{Type: wal.TypeUpdate, Txn: 9, Table: "T", Key: key,
				Cols: []int{2}, New: value.Tuple{value.Int(50)}}, true, nil},
		{"city update (S column)",
			&wal.Record{Type: wal.TypeUpdate, Txn: 9, Table: "T", Key: key,
				Cols: []int{3}, New: value.Tuple{value.Str("x")}}, true, nil},
		{"primary-key update",
			&wal.Record{Type: wal.TypeUpdate, Txn: 9, Table: "T", Key: key,
				Cols: []int{0}, New: value.Tuple{value.Int(2)}}, true, nil},
	}
	for _, c := range cases {
		keys, ok := op.conflictKeys(c.rec)
		if c.barrier {
			if ok {
				t.Errorf("%s: classified parallel-safe with keys %q, want barrier", c.name, keys)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: classified barrier, want keys %q", c.name, c.want)
			continue
		}
		for _, want := range c.want {
			found := false
			for _, k := range keys {
				if k == want || strings.HasPrefix(k, want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: keys %q missing %q", c.name, keys, want)
			}
		}
		if len(keys) != len(c.want) {
			t.Errorf("%s: got %d keys %q, want %d", c.name, len(keys), keys, len(c.want))
		}
	}
}

// TestFOJDoesNotParallelize pins the deliberate decision that the full outer
// join operator propagates serially: its group-level rules have touch sets
// that depend on data (join-attribute lookups), so it must never advertise
// conflict keys.
func TestFOJDoesNotParallelize(t *testing.T) {
	var op operator = (*fojOp)(nil)
	if _, ok := op.(conflictKeyer); ok {
		t.Fatal("fojOp implements conflictKeyer; FOJ propagation is not key-separable")
	}
	if _, ok := operator((*splitOp)(nil)).(conflictKeyer); !ok {
		t.Fatal("splitOp no longer implements conflictKeyer; parallel propagation is dead code")
	}
}

// TestGroupByConflicts checks the union-find grouping: records sharing any
// conflict key land in one group in LSN order; disjoint records split into
// groups ordered by their earliest record.
func TestGroupByConflicts(t *testing.T) {
	recs := []*wal.Record{
		{LSN: 1}, {LSN: 2}, {LSN: 3}, {LSN: 4}, {LSN: 5},
	}
	keys := [][]string{
		{"a"},      // 1
		{"b"},      // 2
		{"a", "c"}, // 3: joins 1 via a
		{"d"},      // 4
		{"c", "b"}, // 5: joins 3 via c, and 2 via b → all of 1,2,3,5 together
	}
	groups := groupByConflicts(recs, keys)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	var g0 []wal.LSN
	for _, r := range groups[0] {
		g0 = append(g0, r.LSN)
	}
	if len(g0) != 4 || g0[0] != 1 || g0[1] != 2 || g0[2] != 3 || g0[3] != 5 {
		t.Errorf("merged group = %v, want [1 2 3 5] in LSN order", g0)
	}
	if len(groups[1]) != 1 || groups[1][0].LSN != 4 {
		t.Errorf("singleton group = %v, want [4]", groups[1])
	}
}

// TestParallelPopulateMatchesSerial: initial population with many workers
// over the partitioned heap must build the same R and S images as a single
// worker, including multiplicity counters.
func TestParallelPopulateMatchesSerial(t *testing.T) {
	build := func(workers int) (map[string]value.Tuple, map[string]value.Tuple) {
		db := newSplitDB(t)
		seedSplit(t, db)
		applySplitHistory(t, db, 42, 120)
		_, op := preparedSplit(t, db, Config{PropagateWorkers: workers})
		return op.rTbl.Rows(), op.sTbl.Rows()
	}
	serialR, serialS := build(1)
	parallelR, parallelS := build(8)
	if len(serialR) != len(parallelR) {
		t.Fatalf("R: %d rows serial vs %d parallel", len(serialR), len(parallelR))
	}
	for k, w := range serialR {
		if g, ok := parallelR[k]; !ok || !g.Equal(w) {
			t.Errorf("R row %q differs: serial %v parallel %v", k, w, parallelR[k])
		}
	}
	if len(serialS) != len(parallelS) {
		t.Fatalf("S: %d rows serial vs %d parallel", len(serialS), len(parallelS))
	}
	for k, w := range serialS {
		if g, ok := parallelS[k]; !ok || !g.Equal(w) {
			t.Errorf("S row %q differs: serial %v parallel %v", k, w, parallelS[k])
		}
	}
}
