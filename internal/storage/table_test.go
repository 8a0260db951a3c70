package storage

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nbschema/internal/catalog"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

func testDef(t *testing.T) *catalog.TableDef {
	t.Helper()
	d, err := catalog.NewTableDef("emp", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "dept", Type: value.KindString, Nullable: true},
		{Name: "salary", Type: value.KindInt, Nullable: true},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func row(id int64, dept string, salary int64) value.Tuple {
	return value.Tuple{value.Int(id), value.Str(dept), value.Int(salary)}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "eng", 100), 10); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	got, lsn, err := tbl.Get(value.Tuple{value.Int(1)})
	if err != nil || lsn != 10 || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("Get = %v, %d, %v", got, lsn, err)
	}
	if _, _, err := tbl.Get(value.Tuple{value.Int(2)}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing Get err = %v", err)
	}
	img, err := tbl.Delete(value.Tuple{value.Int(1)})
	if err != nil || !img.Equal(row(1, "eng", 100)) {
		t.Fatalf("Delete = %v, %v", img, err)
	}
	if tbl.Len() != 0 {
		t.Error("table should be empty")
	}
	if _, err := tbl.Delete(value.Tuple{value.Int(1)}); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "b", 2), 2); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("dup insert err = %v", err)
	}
}

func TestInsertClonesRow(t *testing.T) {
	tbl := NewTable(testDef(t))
	r := row(1, "a", 1)
	if err := tbl.Insert(r, 1); err != nil {
		t.Fatal(err)
	}
	r[1] = value.Str("mutated")
	got, _, _ := tbl.Get(value.Tuple{value.Int(1)})
	if got[1].AsString() != "a" {
		t.Error("Insert must clone the row")
	}
}

func TestUpdate(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	updated, err := tbl.Update(value.Tuple{value.Int(1)}, []int{2}, value.Tuple{value.Int(150)}, 5)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if updated[2].AsInt() != 150 || updated[1].AsString() != "eng" {
		t.Errorf("updated row = %v", updated)
	}
	_, lsn, _ := tbl.Get(value.Tuple{value.Int(1)})
	if lsn != 5 {
		t.Errorf("LSN = %d, want 5", lsn)
	}
}

func TestUpdateErrors(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(value.Tuple{value.Int(2)}, []int{1}, value.Tuple{value.Str("x")}, 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing update err = %v", err)
	}
	if _, err := tbl.Update(value.Tuple{value.Int(1)}, []int{1, 2}, value.Tuple{value.Str("x")}, 2); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := tbl.Update(value.Tuple{value.Int(1)}, []int{9}, value.Tuple{value.Str("x")}, 2); err == nil {
		t.Error("out-of-range column should fail")
	}
}

func TestUpdateRekeys(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(2, "b", 2), 1); err != nil {
		t.Fatal(err)
	}
	// Re-keying onto an existing key must fail.
	if _, err := tbl.Update(value.Tuple{value.Int(1)}, []int{0}, value.Tuple{value.Int(2)}, 3); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("rekey collision err = %v", err)
	}
	// Re-keying onto a fresh key moves the record.
	if _, err := tbl.Update(value.Tuple{value.Int(1)}, []int{0}, value.Tuple{value.Int(3)}, 3); err != nil {
		t.Fatalf("rekey: %v", err)
	}
	if _, _, err := tbl.Get(value.Tuple{value.Int(1)}); !errors.Is(err, ErrNotFound) {
		t.Error("old key should be gone")
	}
	got, _, err := tbl.Get(value.Tuple{value.Int(3)})
	if err != nil || got[1].AsString() != "a" {
		t.Errorf("rekeyed record = %v, %v", got, err)
	}
}

func TestSetLSN(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "a", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetLSN(value.Tuple{value.Int(1)}, 42); err != nil {
		t.Fatal(err)
	}
	_, lsn, _ := tbl.Get(value.Tuple{value.Int(1)})
	if lsn != 42 {
		t.Errorf("LSN = %d", lsn)
	}
	if err := tbl.SetLSN(value.Tuple{value.Int(9)}, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetLSN missing err = %v", err)
	}
}

func TestScan(t *testing.T) {
	tbl := NewTable(testDef(t))
	for i := int64(1); i <= 5; i++ {
		if err := tbl.Insert(row(i, "d", i*10), 1); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	tbl.Scan(func(row value.Tuple, lsn wal.LSN) bool {
		n++
		return true
	})
	if n != 5 {
		t.Errorf("scanned %d rows", n)
	}
	n = 0
	tbl.Scan(func(row value.Tuple, lsn wal.LSN) bool {
		n++
		return n < 2 // early stop
	})
	if n != 2 {
		t.Errorf("early stop scanned %d", n)
	}
}

// fuzzyScan fuzzy-scans every partition in turn, row by row.
func fuzzyScan(tbl *Table, chunk int, fn func(row value.Tuple, lsn wal.LSN)) {
	for pi := 0; pi < tbl.Partitions(); pi++ {
		tbl.FuzzyScanPartition(pi, chunk, func(recs []Record) {
			for _, rec := range recs {
				fn(rec.Row, rec.LSN)
			}
		})
	}
}

func TestFuzzyScanSeesAllQuiescent(t *testing.T) {
	tbl := NewTable(testDef(t))
	for i := int64(1); i <= 100; i++ {
		if err := tbl.Insert(row(i, "d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int64]bool)
	fuzzyScan(tbl, 16, func(row value.Tuple, _ wal.LSN) {
		seen[row[0].AsInt()] = true
	})
	if len(seen) != 100 {
		t.Errorf("fuzzy scan saw %d rows, want 100 on a quiescent table", len(seen))
	}
}

func TestFuzzyScanUnderConcurrentWrites(t *testing.T) {
	tbl := NewTable(testDef(t))
	const n = 2000
	for i := int64(0); i < n; i++ {
		if err := tbl.Insert(row(i, "d", 0), 1); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := value.Tuple{value.Int(int64(i % n))}
			if _, err := tbl.Update(key, []int{2}, value.Tuple{value.Int(int64(i))}, 2); err != nil {
				t.Errorf("concurrent update: %v", err)
				return
			}
		}
	}()
	var count int
	fuzzyScan(tbl, 64, func(row value.Tuple, _ wal.LSN) { count++ })
	close(stop)
	wg.Wait()
	if count != n {
		t.Errorf("fuzzy scan under updates saw %d rows, want %d (no inserts/deletes ran)", count, n)
	}
}

func TestRowsDeepCopy(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "a", 1), 1); err != nil {
		t.Fatal(err)
	}
	m := tbl.Rows()
	for _, r := range m {
		r[1] = value.Str("mutated")
	}
	got, _, _ := tbl.Get(value.Tuple{value.Int(1)})
	if got[1].AsString() != "a" {
		t.Error("Rows must deep copy")
	}
}

func TestEncodeKeyHelpers(t *testing.T) {
	tbl := NewTable(testDef(t))
	r := row(7, "a", 1)
	if keyOfRow(tbl, r) != key(7).Encode() {
		t.Error("AppendKeyOfRow and the key tuple's encoding disagree")
	}
}

// Exercise concurrent readers and writers for the race detector.
func TestConcurrentAccess(t *testing.T) {
	tbl := NewTable(testDef(t))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(g*1000 + i)
				if err := tbl.Insert(row(id, "d", id), 1); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, _, err := tbl.Get(value.Tuple{value.Int(id)}); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tbl.Scan(func(row value.Tuple, _ wal.LSN) bool { return true })
		}
	}()
	wg.Wait()
	if tbl.Len() != 800 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

// TestSharedReadsCOW is the copy-on-write property test for the table's one
// row discipline, shared read-only tuples: concurrent writers keep replacing
// rows through the table API while readers — point gets, index lookups,
// fuzzy partition scans — check an invariant on every tuple they are handed
// and retain tuples past
// the call. Writers must publish fresh tuples, never mutate a published one
// in place, so every observed tuple (including retained ones, re-checked
// after all writes finished) is internally consistent, and the race detector
// sees no read/write overlap on row memory. Run it with -race.
func TestSharedReadsCOW(t *testing.T) {
	tbl := NewTable(testDef(t))
	const rows = 64
	for i := int64(0); i < rows; i++ {
		// Invariant: dept carries the parity of salary ("even"/"odd"); a
		// torn or in-place-mutated row breaks it.
		if err := tbl.Insert(row(i, "even", 0), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	consistent := func(r value.Tuple) bool {
		want := "even"
		if r[2].AsInt()%2 == 1 {
			want = "odd"
		}
		return r[1].AsString() == want
	}

	const writersN, readersN, writesEach = 4, 4, 2000
	var writersLive atomic.Int32
	writersLive.Store(writersN)
	var wg sync.WaitGroup
	// Each writer owns a disjoint stripe of 16 ids so delete gaps and
	// re-keyed rows (moved to id+rows and back) never collide across
	// writers; readers tolerate not-found on point gets.
	stripe := rows / writersN
	for w := 0; w < writersN; w++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer writersLive.Add(-1)
			base := int64(wi * stripe)
			var flipped [64]bool
			state := uint64(wi+1)*2654435761 + 1
			for c := int64(1); c <= writesEach; c++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				idx := int(state % uint64(stripe))
				id := base + int64(idx)
				if flipped[idx] {
					id += rows
				}
				dept := "even"
				if c%2 == 1 {
					dept = "odd"
				}
				key := value.Tuple{value.Int(id)}
				var err error
				switch c % 8 {
				case 0:
					// Re-keying update: move the row between id and id+rows.
					to := base + int64(idx)
					if !flipped[idx] {
						to += rows
					}
					_, err = tbl.Update(key, []int{0},
						value.Tuple{value.Int(to)}, wal.LSN(c))
					flipped[idx] = !flipped[idx]
				case 1:
					// Delete then reinsert a consistent row under the same key.
					if _, err = tbl.Delete(key); err == nil {
						err = tbl.Insert(row(id, dept, c), wal.LSN(c))
					}
				default:
					_, err = tbl.Update(key, []int{1, 2},
						value.Tuple{value.Str(dept), value.Int(c)}, wal.LSN(c))
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", wi, c, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readersN; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			state := uint64(seed)*40503 + 7
			var retained []value.Tuple
			for writersLive.Load() > 0 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				switch state % 3 {
				case 0:
					got, _, err := tbl.Get(value.Tuple{value.Int(int64(state % rows))})
					if err == nil {
						if !consistent(got) {
							t.Errorf("Get saw torn row %v", got)
							return
						}
						retained = append(retained, got)
					}
				case 1:
					dept := "even"
					if state%2 == 1 {
						dept = "odd"
					}
					found, _, err := tbl.LookupIndex("by_dept", value.Tuple{value.Str(dept)})
					if err != nil {
						t.Errorf("LookupIndex: %v", err)
						return
					}
					for _, got := range found {
						if !consistent(got) {
							t.Errorf("LookupIndex saw torn row %v", got)
							return
						}
					}
				default:
					pi := int(state % uint64(tbl.Partitions()))
					tbl.FuzzyScanPartition(pi, 16, func(recs []Record) {
						for _, rec := range recs {
							if !consistent(rec.Row) {
								t.Errorf("scan saw torn row %v", rec.Row)
							}
							// Retaining Record values past the callback is
							// allowed; retaining the chunk slice is not.
							retained = append(retained, rec.Row)
						}
					})
				}
				if len(retained) > 4096 {
					retained = retained[:0]
				}
			}
			// Retained tuples are frozen old versions: still consistent
			// after every writer finished.
			for _, got := range retained {
				if !consistent(got) {
					t.Errorf("retained tuple mutated in place: %v", got)
					return
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()
}

// TestTableMethodSet pins *Table's exported surface. Every data operation has
// exactly two spellings — the caller-encoded one the engine drives, and a
// plain-tuple system write that encodes and delegates — so a new method here
// is a deliberate act: add it to the list with the tier it belongs to, or
// put the convenience in a test helper instead.
func TestTableMethodSet(t *testing.T) {
	want := []string{
		// Caller-encoded tier: the engine's transactional path and bulk loads.
		"GetEnc", "HasEnc", "GetAtEnc", "InsertEncW", "InsertBatch", "UpdateEncW", "DeleteEncW",
		"FuzzyScanPartition", "SnapshotScanPartition",
		// Plain-tuple system writes: propagation rules and recovery.
		"Get", "Insert", "Update", "Delete", "SetLSN",
		// Indexes.
		"CreateIndex", "Index", "IndexCount", "LookupIndex", "CheckUniqueEnc",
		// Shape, whole-table reads and keys.
		"Def", "Len", "Partitions", "Reserve", "Rows", "Scan", "AppendKeyOfRow",
		// Wiring and MVCC bookkeeping.
		"SetFaults", "SetObs", "DetachObs", "SetMVCC", "MVCCEnabled", "GC", "VersionStats",
	}
	sort.Strings(want)
	typ := reflect.TypeOf(&Table{})
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !slices.Equal(got, want) {
		t.Errorf("*Table exports %d methods, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}
