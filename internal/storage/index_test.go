package storage

import (
	"slices"
	"sort"
	"testing"

	"nbschema/internal/value"
)

func TestCreateIndexAndLookup(t *testing.T) {
	tbl := NewTable(testDef(t))
	for i := int64(1); i <= 6; i++ {
		dept := "eng"
		if i%2 == 0 {
			dept = "ops"
		}
		if err := tbl.Insert(row(i, dept, i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	rows, pks, err := tbl.LookupIndex("by_dept", value.Tuple{value.Str("eng")})
	if err != nil || len(rows) != 3 || len(pks) != 3 {
		t.Fatalf("Lookup eng = %d rows, %v", len(rows), err)
	}
	for _, r := range rows {
		if r[1].AsString() != "eng" {
			t.Errorf("wrong row in lookup: %v", r)
		}
	}
	if tbl.IndexCount("by_dept") != 2 {
		t.Errorf("IndexCount = %d, want 2 distinct keys", tbl.IndexCount("by_dept"))
	}
	if tbl.IndexCount("nope") != -1 {
		t.Error("missing index count should be -1")
	}
}

func TestIndexMaintainedByDML(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "eng", 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(2, "eng", 2), 1); err != nil {
		t.Fatal(err)
	}
	rows, _, _ := tbl.LookupIndex("by_dept", value.Tuple{value.Str("eng")})
	if len(rows) != 2 {
		t.Fatalf("after inserts: %d rows", len(rows))
	}
	// Update moves the record between index keys.
	if _, err := tbl.Update(value.Tuple{value.Int(1)}, []int{1}, value.Tuple{value.Str("ops")}, 2); err != nil {
		t.Fatal(err)
	}
	rows, _, _ = tbl.LookupIndex("by_dept", value.Tuple{value.Str("eng")})
	if len(rows) != 1 {
		t.Errorf("after update, eng = %d rows", len(rows))
	}
	rows, _, _ = tbl.LookupIndex("by_dept", value.Tuple{value.Str("ops")})
	if len(rows) != 1 {
		t.Errorf("after update, ops = %d rows", len(rows))
	}
	// Delete removes the entry.
	if _, err := tbl.Delete(value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	rows, _, _ = tbl.LookupIndex("by_dept", value.Tuple{value.Str("ops")})
	if len(rows) != 0 {
		t.Errorf("after delete, ops = %d rows", len(rows))
	}
}

func TestUniqueIndex(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("u_salary", []int{2}, true); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "a", 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(2, "b", 100), 1); err == nil {
		t.Fatal("unique index should reject duplicate")
	}
	// The failed insert must not leave the row behind.
	if tbl.Len() != 1 {
		t.Errorf("Len = %d after rejected insert", tbl.Len())
	}
	if _, _, err := tbl.Get(value.Tuple{value.Int(2)}); err == nil {
		t.Error("rejected row should not be stored")
	}
	// Updating to a duplicate unique key must also fail cleanly.
	if err := tbl.Insert(row(3, "c", 300), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(value.Tuple{value.Int(3)}, []int{2}, value.Tuple{value.Int(100)}, 2); err == nil {
		t.Error("unique index should reject duplicate via update")
	}
}

func TestCreateIndexValidation(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("bad", []int{9}, false); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := tbl.CreateIndex("a", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("a", []int{1}, false); err == nil {
		t.Error("duplicate index name should fail")
	}
	if tbl.Index("a") == nil {
		t.Error("Index(a) should exist")
	}
	if tbl.Index("zz") != nil {
		t.Error("Index(zz) should be nil")
	}
}

func TestCreateIndexBackfillUniqueViolation(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "a", 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(2, "b", 100), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("u", []int{2}, true); err == nil {
		t.Error("backfill over duplicates should fail for a unique index")
	}
}

func TestLookupMissingIndex(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, _, err := tbl.LookupIndex("ghost", value.Tuple{value.Int(1)}); err == nil {
		t.Error("lookup on missing index should fail")
	}
}

func TestIndexOnMultipleColumns(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("multi", []int{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "a", 5), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(2, "a", 6), 1); err != nil {
		t.Fatal(err)
	}
	rows, _, _ := tbl.LookupIndex("multi", value.Tuple{value.Str("a"), value.Int(5)})
	if len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Errorf("multi lookup = %v", rows)
	}
}

// postingOf reads the posting stored under an index key, inline key first.
func postingOf(tbl *Table, index string, key value.Tuple) []string {
	ix := tbl.Index(index)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	post, ok := ix.entries[key.Encode()]
	if !ok {
		return nil
	}
	return append([]string{post.one}, post.more...)
}

// TestFlatPostingTransitions walks one posting through 0→1→2→3→2→1→0 keys,
// removing the inline key, a middle key and the last key in turn, and checks
// that removing an absent pair changes nothing.
func TestFlatPostingTransitions(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	eng := value.Tuple{value.Str("eng")}
	pk := func(id int64) string { return key(id).Encode() }
	want := func(step string, pks ...string) {
		t.Helper()
		got := postingOf(tbl, "by_dept", eng)
		sort.Strings(got)
		sort.Strings(pks)
		if !slices.Equal(got, pks) {
			t.Fatalf("%s: posting = %q, want %q", step, got, pks)
		}
		if n := tbl.IndexCount("by_dept"); (n == 1) != (len(pks) > 0) {
			t.Fatalf("%s: %d index keys for a posting of %d", step, n, len(pks))
		}
	}
	want("empty")
	for id := int64(1); id <= 3; id++ {
		if err := tbl.Insert(row(id, "eng", id), 1); err != nil {
			t.Fatal(err)
		}
	}
	want("three rows", pk(1), pk(2), pk(3))
	if got := postingOf(tbl, "by_dept", eng); got[0] != pk(1) {
		t.Errorf("first key is not inline: %q", got)
	}

	ix := tbl.Index("by_dept")
	ix.removeOne(row(9, "eng", 0), pk(9)) // absent pk under a present key
	ix.removeOne(row(9, "ops", 0), pk(9)) // absent key
	want("after removing absent pairs", pk(1), pk(2), pk(3))

	if _, err := tbl.Delete(key(1)); err != nil { // the inline key
		t.Fatal(err)
	}
	want("inline key removed", pk(2), pk(3))
	if err := tbl.Insert(row(4, "eng", 4), 1); err != nil {
		t.Fatal(err)
	}
	inline := postingOf(tbl, "by_dept", eng)[0]
	var other int64 = 2
	if inline == pk(2) {
		other = 3
	}
	if _, err := tbl.Delete(key(other)); err != nil { // a key in the slice
		t.Fatal(err)
	}
	if _, err := tbl.Delete(key(4)); err != nil {
		t.Fatal(err)
	}
	want("back to one", inline)
	if got := postingOf(tbl, "by_dept", eng); len(got) != 1 {
		t.Errorf("one-row posting keeps a slice: %q", got)
	}
	rows, pks, err := tbl.LookupIndex("by_dept", eng)
	if err != nil || len(rows) != 1 || len(pks) != 1 || pks[0] != inline {
		t.Fatalf("lookup of the one-row posting = %v, %q, %v", rows, pks, err)
	}
	for id := int64(1); id <= 4; id++ {
		_, _ = tbl.Delete(key(id))
	}
	want("empty again")
	if rows, pks, err := tbl.LookupIndex("by_dept", eng); err != nil || len(rows) != 0 || len(pks) != 0 {
		t.Errorf("lookup of a dropped posting = %v, %q, %v", rows, pks, err)
	}
}

// TestLookupIndexOrderStable: whatever order inserts and removals left the
// posting in, a lookup returns rows and keys in primary-key order, aligned.
func TestLookupIndexOrderStable(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("by_dept", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{7, 3, 9, 1, 5} {
		if err := tbl.Insert(row(id, "eng", id), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Delete(key(7)); err != nil { // reshuffles the posting
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		rows, pks, err := tbl.LookupIndex("by_dept", value.Tuple{value.Str("eng")})
		if err != nil || len(rows) != 4 || !sort.StringsAreSorted(pks) {
			t.Fatalf("lookup = %d rows, keys %q, %v", len(rows), pks, err)
		}
		for i, r := range rows {
			if pks[i] != keyOfRow(tbl, r) {
				t.Errorf("row %v returned beside key %q", r, pks[i])
			}
		}
	}
}

// TestUniqueIndexFlatPosting: a unique index holds one-key postings only; a
// second key under the same value is rejected by insert, update, batch and
// CheckUniqueEnc alike, and re-writing a row onto its own value is not.
func TestUniqueIndexFlatPosting(t *testing.T) {
	tbl := NewTable(testDef(t))
	if _, err := tbl.CreateIndex("u_salary", []int{2}, true); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "a", 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CheckUniqueEnc(row(2, "b", 100), key(2).AppendEncode(nil)); err == nil {
		t.Error("CheckUniqueEnc accepts a second key under a taken value")
	}
	if err := tbl.CheckUniqueEnc(row(1, "z", 100), key(1).AppendEncode(nil)); err != nil {
		t.Errorf("CheckUniqueEnc rejects the row's own value: %v", err)
	}
	if _, err := tbl.Update(key(1), []int{1, 2}, value.Tuple{value.Str("z"), value.Int(100)}, 2); err != nil {
		t.Errorf("update onto the row's own unique value: %v", err)
	}
	n, err := tbl.InsertBatch([]Record{{Row: row(2, "b", 200)}, {Row: row(3, "c", 100)}, {Row: row(4, "d", 400)}}, nil)
	if n != 1 || err == nil {
		t.Fatalf("batch with a unique violation at its second row stored %d rows, err %v", n, err)
	}
	if got := postingOf(tbl, "u_salary", value.Tuple{value.Int(100)}); len(got) != 1 || got[0] != key(1).Encode() {
		t.Errorf("posting of the contested value = %q", got)
	}
	if tbl.Len() != 2 || tbl.IndexCount("u_salary") != 2 {
		t.Errorf("after the failed batch: %d rows, %d index keys, want 2 and 2", tbl.Len(), tbl.IndexCount("u_salary"))
	}
}
