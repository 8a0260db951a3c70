package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/lock"
	"nbschema/internal/obs"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

type txnState uint8

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
)

// Txn is a transaction. All methods are safe for use by one goroutine at a
// time; the engine additionally serializes against ForceAbort internally.
type Txn struct {
	db *DB
	id wal.TxnID

	// started is set by DB.Begin only when the commit-latency histogram is
	// live; the zero value means "not timed".
	started time.Time

	// begin is the LSN of the begin record, written once by DB.Begin and
	// read lock-free by fuzzy-mark snapshots and access checks.
	begin atomic.Uint64

	// doomed is set lock-free by DB.Doom: the synchronization coordinator
	// dooms transactions while holding table latches that an in-flight
	// operation of this very transaction may be blocked on, so dooming must
	// never need t.mu.
	doomed atomic.Bool

	// MVCC (SnapshotReads mode): beginTS is the commit-clock reading at
	// Begin, the reference point for first-committer-wins checks; wctx
	// carries the commit cell shared by every version this transaction
	// writes, allocated lazily on the first write (a transaction that never
	// writes advances no clock). Both are used only under t.mu.
	beginTS uint64
	wctx    *storage.WriteCtx

	mu      sync.Mutex
	state   txnState
	lastLSN wal.LSN

	// ops counts the logged data operations. It is atomic so introspection
	// reads it lock-free (TxnInfos must not take t.mu: it may be held across
	// a blocked lock wait).
	ops atomic.Int64

	// Bounded event history for the debug surface, guarded by its own mutex
	// for the same reason.
	histMu sync.Mutex
	hist   []TxnEvent
	histN  int64

	// keyBuf and keyBuf2 are scratch buffers for primary-key encodings, reused
	// across operations so steady-state key encoding allocates nothing. Both
	// are used only under t.mu; keyBuf2 exists because a re-keying update
	// needs the old and new encodings live at the same time.
	keyBuf  []byte
	keyBuf2 []byte

	// touched names every table this transaction has logged an operation
	// against, recorded BEFORE the corresponding WAL append: a checkpoint
	// that reads it after its begin record is appended therefore sees every
	// table the transaction wrote at any LSN below the begin. Guarded by its
	// own mutex because the checkpointer reads it from another goroutine
	// while t.mu may be held across a blocked lock wait.
	touchMu sync.Mutex
	touched map[string]struct{}
}

// touch records that the transaction is about to log an operation on table.
func (t *Txn) touch(table string) {
	t.touchMu.Lock()
	if t.touched == nil {
		t.touched = make(map[string]struct{}, 4)
	}
	t.touched[table] = struct{}{}
	t.touchMu.Unlock()
}

// TouchedTables returns the names of the tables the transaction has logged
// operations against so far. Checkpointing uses it to compute per-table redo
// low-water marks.
func (t *Txn) TouchedTables() []string {
	t.touchMu.Lock()
	defer t.touchMu.Unlock()
	out := make([]string, 0, len(t.touched))
	for n := range t.touched {
		out = append(out, n)
	}
	return out
}

// BeginLSN returns the LSN of the transaction's begin record.
func (t *Txn) BeginLSN() wal.LSN { return wal.LSN(t.begin.Load()) }

// ID returns the transaction identifier.
func (t *Txn) ID() wal.TxnID { return t.id }

func (t *Txn) doom() { t.doomed.Store(true) }

// Doomed reports whether the transaction has been marked for forced abort.
func (t *Txn) Doomed() bool { return t.doomed.Load() }

// writeCtx returns the transaction's MVCC write identity, allocating the
// shared commit cell on first use; nil when MVCC is off (the zero-cost
// disabled mode). Called with t.mu held.
func (t *Txn) writeCtx() *storage.WriteCtx {
	if !t.db.mvcc {
		return nil
	}
	if t.wctx == nil {
		t.wctx = &storage.WriteCtx{Cell: &storage.CommitCell{}, BeginTS: t.beginTS}
	}
	return t.wctx
}

// checkUsable must be called with t.mu held.
func (t *Txn) checkUsable() error {
	if t.state != txnActive {
		return fmt.Errorf("%w (txn %d)", ErrTxnDone, t.id)
	}
	if t.doomed.Load() {
		return fmt.Errorf("%w (txn %d)", ErrTxnDoomed, t.id)
	}
	return nil
}

// lockAndCheck acquires a record lock and runs the transformation hook. The
// caller supplies the key's encoding (enc), already derived into one of the
// transaction's scratch buffers, so the lock manager never re-encodes — on
// the already-holder fast path the whole call is allocation-free. With
// history on, slow or failed lock waits land in the event history; with a
// timeline recorder, they also land as lock-stall spans. Event and span
// construction is gated on those sinks being live, so the disabled mode
// never materializes the key string or reads the clock.
func (t *Txn) lockAndCheck(table string, key value.Tuple, enc []byte, mode lock.Mode) error {
	var start time.Time
	timed := t.db.histBound > 0
	spans := t.db.timeline.Enabled()
	if timed || spans {
		start = time.Now()
	}
	err := t.db.locks.AcquireEnc(t.id, table, enc, mode)
	if !start.IsZero() {
		wait := time.Since(start)
		if timed && (err != nil || wait >= slowLockWaitFloor) {
			ev := TxnEvent{
				Kind: "lock-wait", Table: table, Key: string(enc),
				Mode: mode.String(), Duration: wait,
			}
			if err != nil {
				ev.Err = err.Error()
			}
			t.record(ev)
		}
		if spans && wait >= slowLockWaitFloor {
			t.db.timeline.Span("lock-stall "+table, obs.CatLock, obs.TidLocks,
				start, wait, int64(t.id))
		}
	}
	if err != nil {
		return err
	}
	if h := t.db.currentHooks(); h.CheckLock != nil {
		if err := h.CheckLock(t.id, table, key, mode); err != nil {
			return err
		}
	}
	return nil
}

// Insert adds a row to a table under an exclusive lock, logging before
// applying.
func (t *Txn) Insert(table string, row value.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return err
	}
	def, tbl, latch, err := t.db.enter(table, t.BeginLSN())
	if err != nil {
		return err
	}
	defer latch.ReleaseShared()
	if err := def.ValidateRow(row); err != nil {
		return err
	}

	// KeyOf projects into a fresh tuple, so the WAL record may carry it
	// without a defensive clone; the encoding is derived once into the
	// transaction scratch and threaded through lock, duplicate check,
	// uniqueness check and the storage apply.
	key := def.KeyOf(row)
	t.keyBuf = key.AppendEncode(t.keyBuf[:0])
	enc := t.keyBuf
	if err := t.lockAndCheck(table, key, enc, lock.Exclusive); err != nil {
		return err
	}
	if tbl.HasEnc(enc) {
		return fmt.Errorf("%w: %s in table %s", storage.ErrDuplicateKey, key, table)
	}
	if err := tbl.CheckUniqueEnc(row, enc); err != nil {
		return err
	}
	// The one clone is shared between the log record and storage:
	// InsertEncW takes ownership of the tuple, and the copy-on-write
	// discipline (writers replace rows, never mutate them) keeps the logged
	// image stable.
	return t.logAndApply(tbl, &wal.Record{
		Txn:   t.id,
		Type:  wal.TypeInsert,
		Table: table,
		Key:   key,
		Row:   row.Clone(),
		Prev:  t.lastLSN,
	}, enc)
}

// Update overwrites the named columns of the record under key.
func (t *Txn) Update(table string, key value.Tuple, cols []string, vals value.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return err
	}
	def, tbl, latch, err := t.db.enter(table, t.BeginLSN())
	if err != nil {
		return err
	}
	defer latch.ReleaseShared()
	colIdx, err := def.ColIndexes(cols)
	if err != nil {
		return err
	}
	if len(colIdx) != len(vals) {
		return fmt.Errorf("engine: update arity mismatch: %d cols, %d vals", len(colIdx), len(vals))
	}

	t.keyBuf = key.AppendEncode(t.keyBuf[:0])
	enc := t.keyBuf
	if err := t.lockAndCheck(table, key, enc, lock.Exclusive); err != nil {
		return err
	}
	before, _, err := tbl.GetEnc(key, enc)
	if err != nil {
		return err
	}
	// before may be the stored tuple itself (shared reads); the new image is
	// always built on a fresh clone, never in place.
	newRow := before.Clone()
	for i, c := range colIdx {
		newRow[c] = vals[i]
	}
	if err := def.ValidateRow(newRow); err != nil {
		return err
	}
	// If the primary key changes, the new key must be locked as well, and
	// the collision must be detected before anything is logged. Whether it
	// changed is decided on the encodings (second scratch buffer: both must
	// stay live at once).
	t.keyBuf2 = tbl.AppendKeyOfRow(t.keyBuf2[:0], newRow)
	newEnc := t.keyBuf2
	rekey := string(newEnc) != string(enc)
	if rekey {
		newKey := def.KeyOf(newRow)
		if err := t.lockAndCheck(table, newKey, newEnc, lock.Exclusive); err != nil {
			return err
		}
		if tbl.HasEnc(newEnc) {
			return fmt.Errorf("%w: update re-keys %s onto existing %s in table %s",
				storage.ErrDuplicateKey, key, newKey, table)
		}
	}
	if err := tbl.CheckUniqueEnc(newRow, enc); err != nil {
		return err
	}
	rec := &wal.Record{
		Txn:   t.id,
		Type:  wal.TypeUpdate,
		Table: table,
		Key:   key.Clone(),
		Cols:  colIdx,
		Old:   before.Project(colIdx),
		New:   vals.Clone(),
		Prev:  t.lastLSN,
	}
	if rekey {
		// A re-keying update moves the row across partitions, so a fuzzy
		// checkpoint scanning those partitions at different moments can
		// capture it zero times. Carry the full post-image so guarded redo
		// can re-create the row when it is missing under both keys. newRow
		// is engine-local (built above), so it needs no further clone.
		rec.Row = newRow
	}
	return t.logAndApply(tbl, rec, enc)
}

// Delete removes the record under key.
func (t *Txn) Delete(table string, key value.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return err
	}
	_, tbl, latch, err := t.db.enter(table, t.BeginLSN())
	if err != nil {
		return err
	}
	defer latch.ReleaseShared()

	t.keyBuf = key.AppendEncode(t.keyBuf[:0])
	enc := t.keyBuf
	if err := t.lockAndCheck(table, key, enc, lock.Exclusive); err != nil {
		return err
	}
	before, _, err := tbl.GetEnc(key, enc)
	if err != nil {
		return err
	}
	return t.logAndApply(tbl, &wal.Record{
		Txn:   t.id,
		Type:  wal.TypeDelete,
		Table: table,
		Key:   key.Clone(),
		// Before-image for undo. Under shared reads this is the stored tuple
		// itself; the delete unlinks it without mutating it, so the logged
		// image stays stable.
		Row:  before,
		Prev: t.lastLSN,
	}, enc)
}

// logAndApply is the one way out to the log for the three writers: it
// records the table as touched, appends rec, and applies it to tbl under
// the key encoding enc. A storage rejection after the append is compensated
// at once (log-only CLR), so the log never claims an operation storage
// refused; a first-committer-wins rejection is also counted. Called with
// t.mu and the table latch held.
func (t *Txn) logAndApply(tbl *storage.Table, rec *wal.Record, enc []byte) error {
	t.touch(rec.Table)
	lsn := t.db.log.Append(rec)
	var err error
	switch rec.Type {
	case wal.TypeInsert:
		err = tbl.InsertEncW(rec.Row, enc, lsn, t.writeCtx())
	case wal.TypeUpdate:
		_, err = tbl.UpdateEncW(rec.Key, enc, rec.Cols, rec.New, lsn, t.writeCtx())
	case wal.TypeDelete:
		_, err = tbl.DeleteEncW(rec.Key, enc, t.writeCtx())
	}
	if err != nil {
		if errors.Is(err, storage.ErrWriteConflict) {
			t.db.met.wconflicts.Add(1)
		}
		t.compensate(rec, false)
		return err
	}
	t.lastLSN = lsn
	t.ops.Add(1)
	if t.db.histBound > 0 {
		t.record(TxnEvent{Kind: "wal-append", Table: rec.Table, Key: string(enc), Op: rec.Type.String(), LSN: lsn})
	}
	return nil
}

// Get reads the record under key with a shared lock (strict 2PL: the lock is
// held until commit or abort).
func (t *Txn) Get(table string, key value.Tuple) (value.Tuple, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkUsable(); err != nil {
		return nil, err
	}
	_, tbl, latch, err := t.db.enter(table, t.BeginLSN())
	if err != nil {
		return nil, err
	}
	defer latch.ReleaseShared()

	t.keyBuf = key.AppendEncode(t.keyBuf[:0])
	if err := t.lockAndCheck(table, key, t.keyBuf, lock.Shared); err != nil {
		return nil, err
	}
	// The returned tuple is shared read-only storage: callers must not
	// mutate it in place.
	row, _, err := tbl.GetEnc(key, t.keyBuf)
	return row, err
}

// NumOps returns the number of logged data operations so far.
func (t *Txn) NumOps() int { return int(t.ops.Load()) }

// Commit makes the transaction's effects permanent and releases its locks.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if err := t.checkUsable(); err != nil {
		t.mu.Unlock()
		return err
	}
	// Stamp the commit's wall-clock time into the record: the log propagator
	// subtracts it from its apply time to measure how far the transformation
	// targets trail the sources.
	lsn := t.db.log.Append(&wal.Record{
		Txn: t.id, Type: wal.TypeCommit, Prev: t.lastLSN,
		Time: time.Now().UnixNano(),
	})
	if t.wctx != nil {
		// Publish every version this transaction wrote to snapshot readers:
		// stamp the shared cell, then advance the commit clock — in that
		// order, under commitMu, so a snapshot beginning at the new clock
		// value can never observe the commit as still pending. This happens
		// before endTxn releases the record locks, so the next writer's
		// first-committer-wins check sees the committed timestamp.
		db := t.db
		db.commitMu.Lock()
		ts := db.commitTS.Load() + 1
		t.wctx.Cell.Commit(ts)
		db.commitTS.Store(ts)
		db.commitMu.Unlock()
	}
	t.state = txnCommitted
	t.mu.Unlock()
	t.db.met.txnCommit.Add(1)
	if !t.started.IsZero() {
		t.db.met.commitLatency.Observe(time.Since(t.started))
	}
	t.record(TxnEvent{Kind: "commit", LSN: lsn})
	t.maybeRecordSlow("commit")
	t.db.endTxn(t.id)
	return nil
}

// Abort rolls the transaction back: every logged operation is undone in
// reverse order, each undo writing a compensating log record, and finally an
// abort record is logged (ARIES). Aborting a doomed transaction is allowed —
// it is how forced aborts complete.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.state != txnActive {
		t.mu.Unlock()
		return fmt.Errorf("%w (txn %d)", ErrTxnDone, t.id)
	}
	t.undoAll()
	lsn := t.db.log.Append(&wal.Record{Txn: t.id, Type: wal.TypeAbort, Prev: t.lastLSN})
	t.state = txnAborted
	t.mu.Unlock()
	t.db.met.txnAbort.Add(1)
	t.record(TxnEvent{Kind: "abort", LSN: lsn})
	t.maybeRecordSlow("abort")
	t.db.endTxn(t.id)
	return nil
}

// undoAll walks the undo chain from lastLSN, compensating each operation.
// Called with t.mu held.
func (t *Txn) undoAll() {
	lsn := t.lastLSN
	for lsn != 0 && lsn != t.BeginLSN() {
		rec, err := t.db.log.Get(lsn)
		if err != nil {
			break
		}
		switch rec.Type {
		case wal.TypeCLR:
			lsn = rec.UndoNext
			continue
		case wal.TypeInsert, wal.TypeUpdate, wal.TypeDelete:
			t.compensate(rec, true)
		}
		lsn = rec.Prev
	}
}

// compensate writes the CLR for one operation record and, if the original
// operation was actually applied to storage, applies the compensation too.
// A failed operation (applied=false, e.g. a storage-level rejection after
// logging) is compensated only in the log: the pair of records neutralizes
// itself for every log consumer. Called with t.mu held.
//
// The undo path deliberately bypasses the access check of DB.enter: a
// doomed transaction must roll back on a source it may no longer enter. It
// resolves the table once, and only when there is something to apply.
func (t *Txn) compensate(rec *wal.Record, applied bool) {
	var tbl *storage.Table
	var latch *lock.Latch
	if applied {
		_, tbl, latch, _ = t.db.resolve(rec.Table) // nil: dropped mid-undo
	}
	clr := &wal.Record{
		Txn:      t.id,
		Type:     wal.TypeCLR,
		Table:    rec.Table,
		Prev:     t.lastLSN,
		UndoNext: rec.Prev,
	}
	switch rec.Type {
	case wal.TypeInsert:
		clr.Redo = wal.TypeDelete
		clr.Key = rec.Key
		clr.Row = rec.Row // image being removed
	case wal.TypeUpdate:
		clr.Redo = wal.TypeUpdate
		// A compensating update describes the post-state → pre-state
		// transition, so it is keyed by the key the record carries AFTER
		// the original update (they differ when the update re-keyed it).
		clr.Key = keyAfterUpdate(t.db, rec)
		clr.Cols = rec.Cols
		clr.Old = rec.New
		clr.New = rec.Old // compensation restores the before-image
		if tbl != nil && !clr.Key.Equal(rec.Key) {
			// A re-keying compensation carries the full restored image, for
			// the same reason a re-keying update does: a fuzzy checkpoint may
			// capture the moved row under neither key, and guarded redo then
			// re-creates it from this post-image.
			if cur, _, err := tbl.Get(clr.Key); err == nil {
				// cur may be the stored tuple itself (shared reads): build
				// the restored image on a clone, never in place.
				restored := cur.Clone()
				for i, c := range rec.Cols {
					restored[c] = rec.Old[i]
				}
				clr.Row = restored
			}
		}
	case wal.TypeDelete:
		clr.Redo = wal.TypeInsert
		clr.Key = rec.Key
		clr.Row = rec.Row // reinsert the before-image
	default:
		return
	}
	lsn := t.db.log.Append(clr)
	t.lastLSN = lsn
	if tbl == nil {
		return // log-only compensation, or nothing left to apply to
	}
	latch.AcquireShared()
	defer latch.ReleaseShared()
	// Compensations carry the aborting transaction's own commit cell: the
	// cell is never stamped, so the restored images are invisible to
	// snapshot readers, which walk past them to the committed versions —
	// with contents identical to what the compensation restored.
	w := t.writeCtx()
	t.keyBuf = clr.Key.AppendEncode(t.keyBuf[:0])
	switch clr.Redo {
	case wal.TypeDelete:
		_, _ = tbl.DeleteEncW(clr.Key, t.keyBuf, w)
	case wal.TypeUpdate:
		_, _ = tbl.UpdateEncW(clr.Key, t.keyBuf, clr.Cols, clr.New, lsn, w)
	case wal.TypeInsert:
		// The before-image is a stored tuple the delete handed back: shared,
		// read-only, and safe to store again without a copy.
		_ = tbl.InsertEncW(clr.Row, t.keyBuf, lsn, w)
	}
}

// keyAfterUpdate computes the primary key a record carries after applying
// an update record: the update's new values substituted into the key
// columns.
func keyAfterUpdate(db *DB, rec *wal.Record) value.Tuple {
	def, err := db.cat.Get(rec.Table)
	if err != nil {
		return rec.Key
	}
	key := rec.Key.Clone()
	for i, c := range rec.Cols {
		for kpos, pk := range def.PrimaryKey {
			if c == pk {
				key[kpos] = rec.New[i]
			}
		}
	}
	return key
}
