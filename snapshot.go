package nbschema

import (
	"nbschema/internal/engine"
	"nbschema/internal/value"
)

// SnapshotTxn is a read-only snapshot-isolation transaction: it sees the
// newest versions committed at or before its begin timestamp and takes no
// transactional locks — its reads never block a writer and never block on
// one. Like every operation, a read pauses for a transformation's brief
// switchover latch window. Obtain one with DB.Snapshot on a database
// opened with Options.SnapshotReads. A SnapshotTxn is intended for a single
// goroutine; Close it promptly — an open snapshot pins old versions against
// chain garbage collection.
type SnapshotTxn struct {
	s *engine.Snap
}

// Snapshot opens a snapshot-isolation read transaction at the current
// commit timestamp. It fails with ErrSnapshotsOff unless the database was
// opened with Options.SnapshotReads.
func (db *DB) Snapshot() (*SnapshotTxn, error) {
	s, err := db.eng.BeginSnapshot()
	if err != nil {
		return nil, err
	}
	return &SnapshotTxn{s: s}, nil
}

// TS returns the snapshot's begin timestamp.
func (tx *SnapshotTxn) TS() uint64 { return tx.s.TS() }

// Get reads the row under key as of the snapshot. A key inserted, updated
// or deleted by a transaction that committed after the snapshot began is
// read as it stood before that commit; a key that did not exist then
// yields the same not-found error Txn.Get reports for a missing key.
func (tx *SnapshotTxn) Get(table string, key ...any) ([]any, error) {
	k, err := toTuple(key)
	if err != nil {
		return nil, err
	}
	row, err := tx.s.Get(table, k)
	if err != nil {
		return nil, err
	}
	return fromTuple(row), nil
}

// Scan calls fn for every row visible at the snapshot, in unspecified
// order, stopping early when fn returns false.
func (tx *SnapshotTxn) Scan(table string, fn func(row []any) bool) error {
	return tx.s.Scan(table, func(row value.Tuple) bool {
		return fn(fromTuple(row))
	})
}

// Close ends the snapshot, releasing its version pins. Closing twice is a
// no-op.
func (tx *SnapshotTxn) Close() error { return tx.s.Close() }
