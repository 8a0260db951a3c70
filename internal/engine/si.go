package engine

import (
	"fmt"
	"math"
	"sync"

	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Snap is a read-only snapshot-isolation transaction: it reads the newest
// versions committed at or before its begin timestamp and never touches the
// lock manager — a reader can never block a writer and never blocks on one.
// Snapshots enter a table the way 2PL transactions do (DB.enter): the table
// latch is taken shared, so a snapshot read pauses for a synchronization
// step's latch window, and lifecycle states gate it under that latch —
// hidden transformation targets are denied, and a snapshot opened before a
// source's drop switchover may keep reading it.
//
// A Snap pins old versions against chain GC until Close; long-lived
// snapshots therefore grow version chains. All methods are safe for one
// goroutine at a time.
type Snap struct {
	db    *DB
	ts    uint64
	begin wal.LSN

	mu   sync.Mutex
	done bool

	// keyBuf is the snapshot's key-encoding scratch, reused across Gets
	// (guarded by mu like everything else).
	keyBuf []byte
}

// BeginSnapshot opens a snapshot-isolation read transaction at the current
// commit timestamp. It fails with ErrSnapshotsOff unless the DB was opened
// with Options.SnapshotReads.
func (db *DB) BeginSnapshot() (*Snap, error) {
	if !db.mvcc {
		return nil, ErrSnapshotsOff
	}
	db.snapMu.Lock()
	// Pre-publish a conservative GC floor before reading the final
	// timestamp: without it, a commit landing between the clock read and the
	// registry update could trim the very versions this snapshot needs. The
	// floor-store-then-clock-read order here pairs with the clock-read-then-
	// watermark-read order in storage.Table.gcFloor: a trim that could cut
	// versions this snapshot needs must have observed a commit newer than our
	// timestamp on the clock, which means its watermark read happens after
	// this store and sees the floor.
	if f := db.commitTS.Load(); f < db.oldestSnap.Load() {
		db.oldestSnap.Store(f)
	}
	ts := db.commitTS.Load()
	db.snaps[ts]++
	db.recomputeOldestLocked()
	db.snapMu.Unlock()
	db.met.snapBegin.Add(1)
	db.met.snapActive.Add(1)
	return &Snap{db: db, ts: ts, begin: db.log.End()}, nil
}

// recomputeOldestLocked refreshes the oldest-active-snapshot watermark from
// the registry (MaxUint64 when no snapshot is active). Call with snapMu held.
func (db *DB) recomputeOldestLocked() {
	oldest := uint64(math.MaxUint64)
	for ts := range db.snaps {
		if ts < oldest {
			oldest = ts
		}
	}
	db.oldestSnap.Store(oldest)
}

// TS returns the snapshot's begin timestamp.
func (s *Snap) TS() uint64 { return s.ts }

// Get returns the record under key as of the snapshot, or
// storage.ErrNotFound if the key did not exist (or was deleted) then. No
// record lock is taken.
func (s *Snap) Get(table string, key value.Tuple) (value.Tuple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, fmt.Errorf("%w (snapshot)", ErrTxnDone)
	}
	_, tbl, latch, err := s.db.enter(table, s.begin)
	if err != nil {
		return nil, err
	}
	defer latch.ReleaseShared()
	s.keyBuf = key.AppendEncode(s.keyBuf[:0])
	row, _, err := tbl.GetAtEnc(key, s.keyBuf, s.ts)
	return row, err
}

// Scan calls fn for every record visible at the snapshot, in unspecified
// order, stopping early when fn returns false. The rows are shared read-only
// tuples; fn must not mutate them, but may retain them — version tuples are
// immutable once published.
func (s *Snap) Scan(table string, fn func(row value.Tuple) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return fmt.Errorf("%w (snapshot)", ErrTxnDone)
	}
	_, tbl, latch, err := s.db.enter(table, s.begin)
	if err != nil {
		return err
	}
	defer latch.ReleaseShared()
	stop := false
	for pi := 0; pi < tbl.Partitions() && !stop; pi++ {
		tbl.SnapshotScanPartition(pi, s.ts, 0, func(rows []storage.Record) bool {
			for _, rec := range rows {
				if !fn(rec.Row) {
					stop = true
					return false
				}
			}
			return true
		})
	}
	return nil
}

// Close ends the snapshot, unpinning its versions for chain GC. Closing an
// already-closed snapshot is a no-op.
func (s *Snap) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil
	}
	s.done = true
	db := s.db
	db.snapMu.Lock()
	if db.snaps[s.ts]--; db.snaps[s.ts] <= 0 {
		delete(db.snaps, s.ts)
	}
	db.recomputeOldestLocked()
	db.snapMu.Unlock()
	db.met.snapActive.Add(-1)
	return nil
}

// RunGC sweeps every table's version chains, returning the number of
// versions reclaimed. Each table re-derives the reclamation floor — the
// oldest active snapshot bounded by the commit clock — per partition under
// the partition latch (storage.Table.GC), so a snapshot beginning mid-sweep
// is never trimmed out from under. The engine also runs it periodically from
// transaction end; tests and the debug surface call it directly.
func (db *DB) RunGC() int64 {
	if !db.mvcc {
		return 0
	}
	db.mu.RLock()
	tables := make([]*storage.Table, 0, len(db.tables))
	for _, tbl := range db.tables {
		tables = append(tables, tbl)
	}
	db.mu.RUnlock()
	var freed int64
	for _, tbl := range tables {
		freed += tbl.GC()
	}
	db.met.gcRuns.Add(1)
	return freed
}

// MVCCStats is the engine's MVCC state for the debug surface.
type MVCCStats struct {
	Enabled         bool   `json:"enabled"`
	CommitTS        uint64 `json:"commit_ts"`
	ActiveSnapshots int    `json:"active_snapshots"`
	// OldestSnapshot is the GC watermark; MaxUint64 (reported as nil) when
	// no snapshot is active.
	OldestSnapshot *uint64                `json:"oldest_snapshot,omitempty"`
	Tables         []storage.VersionStats `json:"tables,omitempty"`
}

// MVCCStats reports the commit clock, active snapshots, and per-table
// version-chain statistics.
func (db *DB) MVCCStats() MVCCStats {
	s := MVCCStats{Enabled: db.mvcc}
	if !db.mvcc {
		return s
	}
	s.CommitTS = db.commitTS.Load()
	db.snapMu.Lock()
	n := 0
	for _, refs := range db.snaps {
		n += refs
	}
	db.snapMu.Unlock()
	s.ActiveSnapshots = n
	if oldest := db.oldestSnap.Load(); oldest != math.MaxUint64 {
		s.OldestSnapshot = &oldest
	}
	db.mu.RLock()
	for _, tbl := range db.tables {
		s.Tables = append(s.Tables, tbl.VersionStats())
	}
	db.mu.RUnlock()
	return s
}
