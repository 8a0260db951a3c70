package storage

import (
	"errors"
	"sync/atomic"
	"testing"

	"nbschema/internal/catalog"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// mvccTable returns an MVCC-enabled table over testDef plus the shared
// commit clock and oldest-active-snapshot watermark, both pinned to 0
// (nothing trimmable) so visibility tests see full chains.
func mvccTable(t *testing.T) (*Table, *atomic.Uint64, *atomic.Uint64) {
	t.Helper()
	tbl := NewTable(testDef(t))
	var clock, oldest atomic.Uint64
	tbl.SetMVCC(&clock, &oldest)
	return tbl, &clock, &oldest
}

func writer(begin uint64) *WriteCtx {
	return &WriteCtx{Cell: &CommitCell{}, BeginTS: begin}
}

func key(id int64) value.Tuple { return value.Tuple{value.Int(id)} }

// insertW, updateW, deleteW and getAt spell the caller-encoded calls with a
// plain tuple, and keyOfRow is AppendKeyOfRow as a string: conveniences only
// tests want.
func insertW(tbl *Table, r value.Tuple, lsn wal.LSN, w *WriteCtx) error {
	return tbl.InsertEncW(r, tbl.AppendKeyOfRow(nil, r), lsn, w)
}

func updateW(tbl *Table, k value.Tuple, cols []int, vals value.Tuple, lsn wal.LSN, w *WriteCtx) (value.Tuple, error) {
	return tbl.UpdateEncW(k, k.AppendEncode(nil), cols, vals, lsn, w)
}

func deleteW(tbl *Table, k value.Tuple, w *WriteCtx) (value.Tuple, error) {
	return tbl.DeleteEncW(k, k.AppendEncode(nil), w)
}

func getAt(tbl *Table, k value.Tuple, ts uint64) (value.Tuple, wal.LSN, error) {
	return tbl.GetAtEnc(k, k.AppendEncode(nil), ts)
}

func keyOfRow(tbl *Table, r value.Tuple) string {
	return string(tbl.AppendKeyOfRow(nil, r))
}

func TestMVCCVisibilityAcrossCommit(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	// System write: visible to every snapshot, even ts 0.
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	if got, _, err := getAt(tbl, key(1), 0); err != nil || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("GetAt(0) = %v, %v", got, err)
	}

	w := writer(0)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(200)}, 2, w); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: every snapshot still reads the old image (the current
	// image is already the new one).
	if got, _, err := getAt(tbl, key(1), 99); err != nil || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("uncommitted GetAt = %v, %v", got, err)
	}
	if got, _, err := tbl.Get(key(1)); err != nil || !got.Equal(row(1, "eng", 200)) {
		t.Fatalf("current Get = %v, %v", got, err)
	}

	w.Cell.Commit(5)
	if got, _, err := getAt(tbl, key(1), 4); err != nil || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("GetAt(4) = %v, %v", got, err)
	}
	if got, _, err := getAt(tbl, key(1), 5); err != nil || !got.Equal(row(1, "eng", 200)) {
		t.Fatalf("GetAt(5) = %v, %v", got, err)
	}
}

func TestMVCCAbortedWritesInvisible(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	// A writer updates, then its undo compensates back to the old image —
	// both versions carry the same never-committed cell.
	w := writer(0)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(999)}, 2, w); err != nil {
		t.Fatal(err)
	}
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(100)}, 3, w); err != nil {
		t.Fatal(err)
	}
	// The cell is never stamped: snapshots at every ts walk past both
	// versions to the committed base image.
	for _, ts := range []uint64{0, 1, 100} {
		if got, _, err := getAt(tbl, key(1), ts); err != nil || !got.Equal(row(1, "eng", 100)) {
			t.Fatalf("GetAt(%d) after abort = %v, %v", ts, got, err)
		}
	}
}

func TestMVCCFirstCommitterWins(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	w1 := writer(0)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(1)}, 2, w1); err != nil {
		t.Fatal(err)
	}
	// Re-writing a key the transaction already wrote passes.
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(2)}, 3, w1); err != nil {
		t.Fatalf("own re-write: %v", err)
	}
	w1.Cell.Commit(5)

	// A writer that began before w1's commit conflicts.
	w2 := writer(0)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(3)}, 4, w2); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale writer err = %v, want ErrWriteConflict", err)
	}
	if _, err := deleteW(tbl, key(1), w2); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale delete err = %v, want ErrWriteConflict", err)
	}

	// A writer that began at or after the commit passes.
	w3 := writer(5)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(4)}, 5, w3); err != nil {
		t.Fatalf("fresh writer: %v", err)
	}
}

func TestMVCCDeleteTombstoneAndReinsert(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	w1 := writer(0)
	if _, err := deleteW(tbl, key(1), w1); err != nil {
		t.Fatal(err)
	}
	w1.Cell.Commit(3)

	if got, _, err := getAt(tbl, key(1), 2); err != nil || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("pre-delete GetAt = %v, %v", got, err)
	}
	if _, _, err := getAt(tbl, key(1), 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-delete GetAt err = %v", err)
	}

	// Insert over the committed delete: a stale writer conflicts with the
	// tombstone, a fresh one links the prior life back onto its chain.
	stale := writer(0)
	if err := insertW(tbl, row(1, "ops", 50), 4, stale); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale reinsert err = %v, want ErrWriteConflict", err)
	}
	fresh := writer(3)
	if err := insertW(tbl, row(1, "ops", 50), 5, fresh); err != nil {
		t.Fatal(err)
	}
	fresh.Cell.Commit(7)
	if got, _, err := getAt(tbl, key(1), 2); err != nil || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("old life GetAt = %v, %v", got, err)
	}
	if _, _, err := getAt(tbl, key(1), 6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone window GetAt err = %v", err)
	}
	if got, _, err := getAt(tbl, key(1), 7); err != nil || !got.Equal(row(1, "ops", 50)) {
		t.Fatalf("new life GetAt = %v, %v", got, err)
	}
	st := tbl.VersionStats()
	if st.DeadKeys != 0 {
		t.Errorf("dead keys after reinsert = %d, want 0", st.DeadKeys)
	}
}

func TestMVCCRekeyingUpdate(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	w := writer(0)
	// Change the primary key 1 → 2: old key tombstoned, new chain started.
	if _, err := updateW(tbl, key(1), []int{0}, value.Tuple{value.Int(2)}, 2, w); err != nil {
		t.Fatal(err)
	}
	w.Cell.Commit(4)

	if got, _, err := getAt(tbl, key(1), 3); err != nil || !got.Equal(row(1, "eng", 100)) {
		t.Fatalf("old key pre-commit GetAt = %v, %v", got, err)
	}
	if _, _, err := getAt(tbl, key(2), 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("new key pre-commit err = %v", err)
	}
	if _, _, err := getAt(tbl, key(1), 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old key post-commit err = %v", err)
	}
	if got, _, err := getAt(tbl, key(2), 4); err != nil || !got.Equal(row(2, "eng", 100)) {
		t.Fatalf("new key post-commit GetAt = %v, %v", got, err)
	}

	// The snapshot scan must see exactly one row at both timestamps.
	for _, ts := range []uint64{3, 4} {
		n := 0
		for pi := 0; pi < tbl.Partitions(); pi++ {
			tbl.SnapshotScanPartition(pi, ts, 0, func(rows []Record) bool { n += len(rows); return true })
		}
		if n != 1 {
			t.Errorf("snapshot scan at ts %d saw %d rows, want 1", ts, n)
		}
	}
}

func TestMVCCSnapshotScanConsistentCut(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(row(i, "eng", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	w := writer(0)
	if _, err := updateW(tbl, key(3), []int{2}, value.Tuple{value.Int(333)}, 2, w); err != nil {
		t.Fatal(err)
	}
	if _, err := deleteW(tbl, key(4), w); err != nil {
		t.Fatal(err)
	}
	if err := insertW(tbl, row(10, "new", 10), 3, w); err != nil {
		t.Fatal(err)
	}
	w.Cell.Commit(2)

	collect := func(ts uint64) map[int64]int64 {
		got := map[int64]int64{}
		for pi := 0; pi < tbl.Partitions(); pi++ {
			tbl.SnapshotScanPartition(pi, ts, 3, func(rows []Record) bool {
				for _, r := range rows {
					got[r.Row[0].AsInt()] = r.Row[2].AsInt()
				}
				return true
			})
		}
		return got
	}
	before := collect(1)
	if len(before) != 10 || before[3] != 3 || before[4] != 4 {
		t.Fatalf("scan at ts 1 = %v", before)
	}
	after := collect(2)
	if len(after) != 10 {
		t.Fatalf("scan at ts 2 has %d rows: %v", len(after), after)
	}
	if after[3] != 333 {
		t.Errorf("updated row at ts 2 = %d", after[3])
	}
	if _, ok := after[4]; ok {
		t.Error("deleted row still visible at ts 2")
	}
	if after[10] != 10 {
		t.Error("inserted row missing at ts 2")
	}
}

func TestMVCCChainTrimAndGC(t *testing.T) {
	tbl, clock, oldest := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 0), 1); err != nil {
		t.Fatal(err)
	}
	// Build a chain of 5 committed updates while everything is pinned
	// (clock at 0 floors every trim at 0, mimicking an engine whose commit
	// clock the table must not run ahead of).
	for i := uint64(1); i <= 5; i++ {
		w := writer(i - 1)
		if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(int64(i))}, 2, w); err != nil {
			t.Fatal(err)
		}
		w.Cell.Commit(i)
	}
	if st := tbl.VersionStats(); st.MaxChain < 5 {
		t.Fatalf("pinned chain length = %d, want >= 5", st.MaxChain)
	}

	// The floor is min(clock, oldest): raising only the watermark must not
	// unpin anything while the clock still reads 0.
	oldest.Store(5)
	if freed := tbl.GC(); freed != 0 {
		t.Fatalf("GC freed %d with clock at 0", freed)
	}

	// Advance the clock too: everything below the newest committed version
	// (ts 5 <= floor) is unreachable and must be reclaimed.
	clock.Store(5)
	freed := tbl.GC()
	if freed == 0 {
		t.Fatal("GC freed nothing")
	}
	if st := tbl.VersionStats(); st.MaxChain != 1 || st.Versions != 1 {
		t.Fatalf("post-GC stats = %+v", st)
	}
	// The surviving version is still the right image.
	if got, _, err := getAt(tbl, key(1), 5); err != nil || got[2].AsInt() != 5 {
		t.Fatalf("post-GC GetAt = %v, %v", got, err)
	}
}

func TestMVCCGCDeadChains(t *testing.T) {
	tbl, clock, oldest := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 0), 1); err != nil {
		t.Fatal(err)
	}
	w := writer(0)
	if _, err := deleteW(tbl, key(1), w); err != nil {
		t.Fatal(err)
	}
	w.Cell.Commit(2)
	clock.Store(2)

	// Pinned below the delete: the dead chain must survive.
	oldest.Store(1)
	tbl.GC()
	if st := tbl.VersionStats(); st.DeadKeys != 1 {
		t.Fatalf("dead keys at oldest=1: %+v", st)
	}
	// Once every snapshot sees the tombstone, the whole entry goes.
	oldest.Store(2)
	tbl.GC()
	if st := tbl.VersionStats(); st.DeadKeys != 0 || st.Versions != 0 {
		t.Fatalf("dead keys at oldest=2: %+v", st)
	}
}

func TestMVCCOnWriteTrim(t *testing.T) {
	tbl, clock, oldest := mvccTable(t)
	// No active snapshot: the watermark sits at MaxUint64, the floor tracks
	// the advancing commit clock, and each write trims the chain behind
	// itself.
	oldest.Store(^uint64(0))
	if err := tbl.Insert(row(1, "eng", 0), 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		w := writer(i - 1)
		if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(int64(i))}, 2, w); err != nil {
			t.Fatal(err)
		}
		w.Cell.Commit(i)
		clock.Store(i)
	}
	if st := tbl.VersionStats(); st.MaxChain > 2 {
		t.Fatalf("unpinned chain grew to %d, want <= 2", st.MaxChain)
	}
}

func TestMVCCDisabledZeroOverhead(t *testing.T) {
	tbl := NewTable(testDef(t))
	if err := tbl.Insert(row(1, "eng", 100), 1); err != nil {
		t.Fatal(err)
	}
	if tbl.MVCCEnabled() {
		t.Fatal("MVCC enabled without SetMVCC")
	}
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(1)}, 2, writer(0)); err != nil {
		t.Fatal(err)
	}
	// No chains are maintained; GetAt degenerates to the current image.
	if st := tbl.VersionStats(); st.Versions != 0 {
		t.Fatalf("disabled table has %d versions", st.Versions)
	}
	if got, _, err := getAt(tbl, key(1), 0); err != nil || got[2].AsInt() != 1 {
		t.Fatalf("disabled GetAt = %v, %v", got, err)
	}
	if freed := tbl.GC(); freed != 0 {
		t.Fatalf("disabled GC freed %d", freed)
	}
}

// TestMVCCGCFloorBoundedByClock pins the fix for the GC/BeginSnapshot race:
// the reclamation floor is min(clock, watermark) with the clock read first,
// so a sweep never keys a trim on a version committed past the clock value
// it observed — exactly the versions a snapshot registering mid-sweep (at a
// timestamp the sweep's stale watermark read missed) may still need.
func TestMVCCGCFloorBoundedByClock(t *testing.T) {
	tbl, clock, oldest := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 0), 1); err != nil {
		t.Fatal(err)
	}
	w1 := writer(0)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(1)}, 2, w1); err != nil {
		t.Fatal(err)
	}
	w1.Cell.Commit(3)
	clock.Store(3)
	// A commit the sweep's clock read did NOT observe: stamped at 4 while
	// the shared clock still reads 3 (commit stamps the cell before it
	// advances the clock; GC may interleave exactly here).
	w2 := writer(3)
	if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(2)}, 3, w2); err != nil {
		t.Fatal(err)
	}
	w2.Cell.Commit(4)

	// No active snapshot: the watermark reads MaxUint64. The old floor
	// (watermark alone) would cut below the ts-4 version, dropping the ts-3
	// image a snapshot beginning "now" at clock 3 must still read.
	oldest.Store(^uint64(0))
	tbl.GC()
	if got, _, err := getAt(tbl, key(1), 3); err != nil || got[2].AsInt() != 1 {
		t.Fatalf("GetAt(3) after clock-bounded GC = %v, %v (version needed by a snapshot at the current clock was trimmed)", got, err)
	}
	// Once the clock catches up, the same sweep reclaims the chain.
	clock.Store(4)
	if freed := tbl.GC(); freed == 0 {
		t.Fatal("GC freed nothing after clock advanced")
	}
	if got, _, err := getAt(tbl, key(1), 4); err != nil || got[2].AsInt() != 2 {
		t.Fatalf("GetAt(4) after GC = %v, %v", got, err)
	}
}

// TestMVCCReclaimAfterDetachObs pins the DropTable/RunGC race: a sweep that
// still holds a dropped table keeps freeing memory, but once DetachObs has
// settled the table's contribution to the shared gauge, the sweep's reclaim
// must not subtract it again (driving the count negative).
func TestMVCCReclaimAfterDetachObs(t *testing.T) {
	tbl, clock, oldest := mvccTable(t)
	if err := tbl.Insert(row(1, "eng", 0), 1); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		w := writer(i - 1)
		if _, err := updateW(tbl, key(1), []int{2}, value.Tuple{value.Int(int64(i))}, 2, w); err != nil {
			t.Fatal(err)
		}
		w.Cell.Commit(i)
	}
	tbl.DetachObs()
	if n := tbl.nVersions.Load(); n != 0 {
		t.Fatalf("nVersions after DetachObs = %d, want 0", n)
	}
	clock.Store(3)
	oldest.Store(^uint64(0))
	if freed := tbl.GC(); freed == 0 {
		t.Fatal("GC on detached table freed nothing")
	}
	if n := tbl.nVersions.Load(); n != 0 {
		t.Fatalf("nVersions after post-detach GC = %d, want 0 (double-subtracted)", n)
	}
}

// TestMVCCSnapshotScanEarlyStop verifies fn returning false aborts the
// remaining chunks of the partition.
func TestMVCCSnapshotScanEarlyStop(t *testing.T) {
	tbl, _, _ := mvccTable(t)
	for i := int64(0); i < 64; i++ {
		if err := tbl.Insert(row(i, "eng", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for pi := 0; pi < tbl.Partitions(); pi++ {
		calls := 0
		tbl.SnapshotScanPartition(pi, 0, 1, func(rows []Record) bool {
			calls++
			return false
		})
		if calls > 1 {
			t.Fatalf("partition %d delivered %d chunks after fn returned false", pi, calls)
		}
	}
}

// BenchmarkMVCCDisabledScan is the disabled-cost gate for the read path: a
// full latched scan of a table that never called SetMVCC must not allocate —
// MVCC off adds no work to reads.
func BenchmarkMVCCDisabledScan(b *testing.B) {
	benchScan(b, false)
}

// BenchmarkMVCCEnabledScan is the same scan with version chains enabled:
// the plain scan path is identical (the chain hangs off the record and the
// scan never touches it).
func BenchmarkMVCCEnabledScan(b *testing.B) {
	benchScan(b, true)
}

func benchScan(b *testing.B, mvcc bool) {
	tbl := NewTable(benchDef(b))
	if mvcc {
		var clock, oldest atomic.Uint64
		clock.Store(^uint64(0))
		oldest.Store(^uint64(0))
		tbl.SetMVCC(&clock, &oldest)
	}
	for i := int64(0); i < 1024; i++ {
		if err := tbl.Insert(row(i, "eng", i), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int64
	for i := 0; i < b.N; i++ {
		tbl.Scan(func(r value.Tuple, _ wal.LSN) bool {
			n += r[0].AsInt()
			return true
		})
	}
	_ = n
}

// BenchmarkMVCCDisabledUpdate measures the write path with MVCC off: one
// branch on t.mvcc and nothing else — no cells, versions or trims.
func BenchmarkMVCCDisabledUpdate(b *testing.B) {
	benchUpdate(b, false)
}

// BenchmarkMVCCEnabledUpdate is the same update with version chains on, for
// an eyeball of the enabled-mode cost (one version push + on-write trim).
func BenchmarkMVCCEnabledUpdate(b *testing.B) {
	benchUpdate(b, true)
}

func benchUpdate(b *testing.B, mvcc bool) {
	tbl := NewTable(benchDef(b))
	if mvcc {
		var clock, oldest atomic.Uint64
		clock.Store(^uint64(0))
		oldest.Store(^uint64(0))
		tbl.SetMVCC(&clock, &oldest)
	}
	if err := tbl.Insert(row(1, "eng", 0), 1); err != nil {
		b.Fatal(err)
	}
	k := key(1)
	cols := []int{2}
	vals := value.Tuple{value.Int(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Update(k, cols, vals, wal.LSN(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDef(b *testing.B) *catalog.TableDef {
	b.Helper()
	d, err := catalog.NewTableDef("emp", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "dept", Type: value.KindString, Nullable: true},
		{Name: "salary", Type: value.KindInt, Nullable: true},
	}, []string{"id"})
	if err != nil {
		b.Fatal(err)
	}
	return d
}
