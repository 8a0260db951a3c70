package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"nbschema/internal/fault"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// indexImage is an index as a sorted list of "index key → primary key" pairs.
func indexImage(tbl *Table, name string) []string {
	ix := tbl.Index(name)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var out []string
	for k, post := range ix.entries {
		out = append(out, k+"→"+post.one)
		for _, pk := range post.more {
			out = append(out, k+"→"+pk)
		}
	}
	sort.Strings(out)
	return out
}

// rebuiltIndexImage is what the index over cols must hold given the rows.
func rebuiltIndexImage(tbl *Table, cols []int) []string {
	var out []string
	for pk, r := range tbl.Rows() {
		out = append(out, r.Project(cols).Encode()+"→"+pk)
	}
	sort.Strings(out)
	return out
}

func batchOf(ids ...int64) []Record {
	recs := make([]Record, len(ids))
	for i, id := range ids {
		recs[i] = Record{Row: row(id, fmt.Sprint("d", id%3), id), LSN: wal.LSN(id)}
	}
	return recs
}

// TestInsertBatchEqualsSingleInserts: a batch leaves heap, LSNs and indexes
// exactly as the same rows inserted one by one, whether the keys are derived
// or handed in, and on an MVCC table too.
func TestInsertBatchEqualsSingleInserts(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		build := func() *Table {
			tbl := NewTable(testDef(t))
			if mvcc {
				tbl, _, _ = mvccTable(t)
			}
			if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.CreateIndex("u_salary", []int{2}, true); err != nil {
				t.Fatal(err)
			}
			return tbl
		}
		ids := make([]int64, 300)
		for i := range ids {
			ids[i] = int64(i * 7)
		}
		single, batched := build(), build()
		for _, rec := range batchOf(ids...) {
			if err := single.Insert(rec.Row, rec.LSN); err != nil {
				t.Fatal(err)
			}
		}
		batched.Reserve(len(ids))
		recs := batchOf(ids...)
		for i := range recs[:100] { // a caller that knows the keys hands them in
			recs[i].Key = keyOfRow(batched, recs[i].Row)
		}
		if n, err := batched.InsertBatch(recs[:150], nil); n != 150 || err != nil {
			t.Fatalf("first batch: %d, %v", n, err)
		}
		if n, err := batched.InsertBatch(recs[150:], nil); n != 150 || err != nil {
			t.Fatalf("second batch: %d, %v", n, err)
		}
		for pk, want := range single.Rows() {
			got, lsn, err := batched.Get(single.def.KeyOf(want))
			_, wantLSN, _ := single.Get(single.def.KeyOf(want))
			if err != nil || !got.Equal(want) || lsn != wantLSN {
				t.Fatalf("mvcc=%v: row %q = %v @%d (%v), want %v @%d", mvcc, pk, got, lsn, err, want, wantLSN)
			}
		}
		if batched.Len() != single.Len() {
			t.Fatalf("mvcc=%v: %d rows batched, %d single", mvcc, batched.Len(), single.Len())
		}
		for _, ix := range []string{"by_dept", "u_salary"} {
			if !slices.Equal(indexImage(batched, ix), indexImage(single, ix)) {
				t.Errorf("mvcc=%v: index %s differs between batched and single inserts", mvcc, ix)
			}
		}
		if mvcc {
			if got, _, err := getAt(batched, key(7), 0); err != nil || !got.Equal(row(7, "d1", 7)) {
				t.Errorf("batched system write invisible to a snapshot: %v, %v", got, err)
			}
		}
	}
}

// TestInsertBatchFaultParity: storage.insert.<table> armed on the n-th row
// fires at the n-th row of a batch as it does for single inserts — rows
// before it stored and indexed, the failing row absent everywhere, the rows
// after it never attempted — and a duplicate key mid-batch ends the batch
// the same way.
func TestInsertBatchFaultParity(t *testing.T) {
	ids := []int64{1, 2, 3, 4, 5, 6}
	for n := int64(1); n <= int64(len(ids)); n++ {
		var images [2][]string
		var stored [2]int
		for arm := 0; arm < 2; arm++ {
			reg := fault.New()
			tbl := NewTable(testDef(t))
			tbl.SetFaults(reg)
			if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
				t.Fatal(err)
			}
			reg.Arm("storage.insert.emp", fault.OnHit(n), fault.ErrorAction(nil))
			var err error
			if arm == 0 {
				for _, rec := range batchOf(ids...) {
					if err = tbl.Insert(rec.Row, rec.LSN); err != nil {
						break
					}
					stored[arm]++
				}
			} else {
				stored[arm], err = tbl.InsertBatch(batchOf(ids...), nil)
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("n=%d arm %d: err = %v, want the injected fault", n, arm, err)
			}
			if hits := reg.Hits("storage.insert.emp"); hits != n {
				t.Errorf("n=%d arm %d: fault point hit %d times", n, arm, hits)
			}
			images[arm] = indexImage(tbl, "by_dept")
			if !slices.Equal(images[arm], rebuiltIndexImage(tbl, []int{1})) {
				t.Errorf("n=%d arm %d: index and heap disagree: a half-indexed row", n, arm)
			}
		}
		if stored[0] != stored[1] || stored[1] != int(n-1) || !slices.Equal(images[0], images[1]) {
			t.Errorf("n=%d: single inserts stored %d rows, the batch %d, want %d with equal images", n, stored[0], stored[1], n-1)
		}
	}

	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	n, err := tbl.InsertBatch(batchOf(1, 2, 1, 3), nil)
	if n != 2 || !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("batch with a duplicate at its third row stored %d rows, err %v", n, err)
	}
	if tbl.Len() != 2 || !slices.Equal(indexImage(tbl, "by_dept"), rebuiltIndexImage(tbl, []int{1})) {
		t.Errorf("after the duplicate: %d rows, index %q", tbl.Len(), indexImage(tbl, "by_dept"))
	}
}

// TestUpdateMaintainsOnlyTouchedIndexes: after a random mix of updates that
// touch no indexed column, one indexed column, both, and the primary key,
// every index equals the index rebuilt from the heap.
func TestUpdateMaintainsOnlyTouchedIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	def := testDef(t)
	tbl := NewTablePartitions(def, 4)
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_both", []int{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_salary", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	live := map[int64]bool{}
	for id := int64(0); id < 40; id++ {
		if err := tbl.Insert(row(id, fmt.Sprint("d", id%4), id%5), 1); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	pick := func() int64 {
		for {
			if id := rng.Int63n(80); live[id] {
				return id
			}
		}
	}
	for i := 0; i < 2000; i++ {
		id := pick()
		var cols []int
		var vals value.Tuple
		switch rng.Intn(5) {
		case 0: // same value rewritten: no index key changes at all
			cur, _, _ := tbl.Get(key(id))
			cols, vals = []int{1}, value.Tuple{cur[1]}
		case 1:
			cols, vals = []int{1}, value.Tuple{value.Str(fmt.Sprint("d", rng.Intn(4)))}
		case 2:
			cols, vals = []int{2}, value.Tuple{value.Int(rng.Int63n(5))}
		case 3:
			cols, vals = []int{2, 1}, value.Tuple{value.Int(rng.Int63n(5)), value.Str(fmt.Sprint("d", rng.Intn(4)))}
		case 4: // re-key, within or across partitions; no indexed column named
			to := rng.Int63n(80)
			if live[to] {
				continue
			}
			cols, vals = []int{0}, value.Tuple{value.Int(to)}
			delete(live, id)
			live[to] = true
		}
		if _, err := tbl.Update(key(id), cols, vals, wal.LSN(i+2)); err != nil {
			t.Fatalf("update %d of %v: %v", i, cols, err)
		}
	}
	for name, cols := range map[string][]int{"by_dept": {1}, "by_both": {1, 2}, "by_salary": {2}} {
		if got, want := indexImage(tbl, name), rebuiltIndexImage(tbl, cols); !slices.Equal(got, want) {
			t.Errorf("index %s drifted from the heap:\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestReserveKeepsContents: presizing a loaded table moves every row and
// index entry into the larger maps.
func TestReserveKeepsContents(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertBatch(batchOf(1, 2, 3, 4, 5), nil); err != nil {
		t.Fatal(err)
	}
	before, beforeIx := tbl.Rows(), indexImage(tbl, "by_dept")
	tbl.Reserve(10_000)
	tbl.Reserve(0)
	after := tbl.Rows()
	if len(after) != len(before) || !slices.Equal(indexImage(tbl, "by_dept"), beforeIx) {
		t.Fatalf("Reserve changed the contents: %d rows → %d", len(before), len(after))
	}
	if err := tbl.Insert(row(6, "d0", 6), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(key(1)); err != nil { // a batch-inserted record
		t.Fatal(err)
	}
	if _, _, err := tbl.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted batch record still readable: %v", err)
	}
}

// TestPartitionLockOutlastsItsPoll: a writer that meets a latch held for
// longer than its bounded poll still gets it — by parking — once the holder
// lets go, and holds it exclusively.
func TestPartitionLockOutlastsItsPoll(t *testing.T) {
	p := &partition{}
	p.mu.RLock()
	released := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond) // well past the poll
		close(released)
		p.mu.RUnlock()
	}()
	p.lock()
	select {
	case <-released:
	default:
		t.Fatal("write latch granted while a reader still held it")
	}
	if p.mu.TryRLock() {
		t.Fatal("write latch is not exclusive")
	}
	p.mu.Unlock()
}
