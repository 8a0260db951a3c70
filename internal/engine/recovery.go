package engine

import (
	"errors"
	"fmt"
	"io"

	"nbschema/internal/catalog"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// errSnapshotInsufficient marks a guarded-redo situation the fuzzy snapshot
// cannot be repaired from — e.g. a re-keying update the scan captured under
// neither key, logged without a post-image by an older writer. Restart
// responds by discarding the snapshot and re-running as a full replay, which
// reconstructs every row from the log alone.
var errSnapshotInsufficient = errors.New("engine: fuzzy snapshot insufficient for guarded redo")

// Restart rebuilds a database from a write-ahead log, ARIES-style: a redo
// pass replays every logged operation (including CLRs) in LSN order, then an
// undo pass rolls back loser transactions — those with a begin record but no
// commit or abort — writing fresh CLRs and abort records. The schema is not
// logged, so the caller supplies the table definitions.
//
// The paper assumes exactly this recovery regime (Section 1); the
// transformation framework additionally relies on a transformation being
// recoverable by simply dropping its target tables and restarting, which
// Restart enables because targets are populated outside the log.
func Restart(defs []*catalog.TableDef, log *wal.Log, opts Options) (*DB, error) {
	return restart(defs, log, nil, opts)
}

// restart is the shared restart core. With a snapshot, redo is bounded to
// the log suffix past the checkpoint's per-table low-water marks; without
// one, it replays the full log.
func restart(defs []*catalog.TableDef, log *wal.Log, snap *storage.Snapshot, opts Options) (*DB, error) {
	db := New(opts)
	db.restarted = true
	supplied := make(map[string]bool, len(defs))
	for _, def := range defs {
		if err := db.CreateTable(def); err != nil {
			return nil, fmt.Errorf("engine: restart: %w", err)
		}
		supplied[def.Name] = true
	}

	// Restore the checkpoint image, if any: cross-check the supplied
	// definitions against the ones the snapshot recorded, reconstruct
	// tables the caller could not supply (hidden transformation targets
	// travel with the snapshot), and load the fuzzy row image. The marks
	// come from the checkpoint-end record the caller already validated.
	marks := make(map[string]wal.LSN)
	redoStart := wal.LSN(1)
	if snap != nil {
		endRec, err := log.Get(snap.End)
		if err != nil || endRec.Type != wal.TypeCheckpointEnd {
			return nil, fmt.Errorf("engine: restart: checkpoint-end record at LSN %d missing from log", snap.End)
		}
		redoStart = snap.Begin
		for _, tm := range endRec.Marks {
			marks[tm.Table] = tm.Low
			if tm.Low < redoStart {
				redoStart = tm.Low
			}
		}
		rows := 0
		for _, st := range snap.Tables {
			if supplied[st.Def.Name] {
				cur, _ := db.cat.Get(st.Def.Name)
				if err := defsAgree(cur, st.Def); err != nil {
					return nil, fmt.Errorf("engine: restart: supplied schema for table %s disagrees with the checkpoint: %w", st.Def.Name, err)
				}
			} else if err := db.CreateTable(st.Def.Clone()); err != nil {
				return nil, fmt.Errorf("engine: restart: recreating table %s from checkpoint: %w", st.Def.Name, err)
			}
			tbl := db.Table(st.Def.Name)
			tbl.Reserve(len(st.Rows))
			if _, err := tbl.InsertBatch(st.Rows, nil); err != nil {
				return nil, fmt.Errorf("engine: restart: restoring table %s: %w", st.Def.Name, err)
			}
			rows += len(st.Rows)
		}
		db.restoredCkpt = &RestoredCheckpoint{
			Begin: snap.Begin, End: snap.End,
			Tables: len(snap.Tables), Rows: rows,
		}
		db.ckptLastLSN.Store(uint64(snap.Begin))
		db.met.recSnapshot.Add(1)
	} else {
		db.met.recFull.Add(1)
	}

	// Bookkeeping pass over the full log: the transaction table (needed to
	// find losers and their undo chains) and the schema cross-check of every
	// operation record against the supplied definitions. Only the redo pass
	// below is suffix-bounded — this pass does no storage work.
	type txnInfo struct {
		first, last wal.LSN
		ended       bool
	}
	txns := make(map[wal.TxnID]*txnInfo)
	note := func(id wal.TxnID, lsn wal.LSN) *txnInfo {
		ti := txns[id]
		if ti == nil {
			ti = &txnInfo{first: lsn}
			txns[id] = ti
		}
		ti.last = lsn
		return ti
	}
	for _, rec := range log.Scan(1, 0) {
		if rec.Txn != 0 {
			ti := note(rec.Txn, rec.LSN)
			if rec.Type == wal.TypeCommit || rec.Type == wal.TypeAbort {
				ti.ended = true
			}
		}
		if !rec.Type.IsOp() {
			continue
		}
		if err := validateOp(db, rec); err != nil {
			return nil, err
		}
	}

	// Redo pass. With a snapshot, a record is redone only past its table's
	// low-water mark, and idempotently: the fuzzy image may already hold the
	// effect of any record at or above the mark, which the per-row LSN guard
	// absorbs. Without a snapshot, redo starts from an empty heap and applies
	// strictly.
	for _, rec := range log.Scan(redoStart, 0) {
		if !rec.Type.IsOp() {
			continue
		}
		if snap != nil {
			mark, ok := marks[rec.Table]
			if !ok {
				mark = snap.Begin // table unknown to the checkpoint: be conservative
			}
			if rec.LSN < mark {
				continue
			}
			if err := redoGuarded(db, rec); err != nil {
				if errors.Is(err, errSnapshotInsufficient) {
					// The snapshot cannot be repaired by guarded redo; fall
					// back to a full replay from the log alone, exactly as if
					// the checkpoint had been torn.
					return restart(defs, log, nil, opts)
				}
				return nil, fmt.Errorf("engine: restart: redo LSN %d: %w", rec.LSN, err)
			}
		} else if err := redo(db, rec); err != nil {
			return nil, fmt.Errorf("engine: restart: redo LSN %d: %w", rec.LSN, err)
		}
		db.replayed.Add(1)
		db.met.recReplayed.Add(1)
	}

	// Adopt the log and continue numbering after it, re-applying the DB's
	// group-commit and instrumentation configuration.
	db.log = log
	db.log.SetFaults(db.faults)
	db.log.SetGroupCommit(opts.GroupCommit)
	if db.obs != nil {
		db.log.SetObs(db.obs)
	}
	db.txnMu.Lock()
	for id := range txns {
		if id > db.nextTxn {
			db.nextTxn = id
		}
	}
	db.txnMu.Unlock()

	// Undo pass: roll back losers through the normal abort path so CLRs and
	// abort records land in the log.
	for id, ti := range txns {
		if ti.ended {
			continue
		}
		loser := &Txn{db: db, id: id, lastLSN: ti.last}
		loser.begin.Store(uint64(ti.first))
		db.txnMu.Lock()
		db.active[id] = loser
		db.txnMu.Unlock()
		if err := loser.Abort(); err != nil {
			return nil, fmt.Errorf("engine: restart: undo txn %d: %w", id, err)
		}
	}
	// Everything at or below this LSN was recovered from the log (effects
	// present only where the replay or a checkpoint put them); everything
	// above it is appended live by this process.
	db.restartLSN = db.log.End()
	return db, nil
}

// RestartFrom decodes a serialized write-ahead log from r and runs Restart on
// it. Log strictness follows opts.LenientWAL: strict mode fails on any
// corrupt or torn record, lenient mode truncates the log at the first bad
// frame and recovers from the valid prefix — the policy a crashed process
// needs, since a crash mid-append routinely leaves a torn tail. When lenient
// reading truncated the log, the (possibly nil) *wal.CorruptionError
// describing the cut is returned alongside the database.
func RestartFrom(defs []*catalog.TableDef, r io.Reader, opts Options) (*DB, *wal.CorruptionError, error) {
	return RestartFromSnapshot(defs, r, nil, opts)
}

// RestartFromSnapshot restarts from a serialized log plus an optional
// checkpoint snapshot stream. When the stream holds a complete, verified
// checkpoint consistent with the recovered log, restart restores its row
// image and replays only the log suffix past the checkpoint's per-table
// low-water marks (DB.ReplayedRecords reports how many records that was). A
// torn, corrupt, or inconsistent checkpoint — including one whose bracketing
// records fell past a lenient log truncation — falls back to full replay;
// the metrics engine.recovery.snapshot and engine.recovery.full record which
// path ran. A nil snapR selects full replay.
func RestartFromSnapshot(defs []*catalog.TableDef, logR, snapR io.Reader, opts Options) (*DB, *wal.CorruptionError, error) {
	var (
		log *wal.Log
		cut *wal.CorruptionError
		err error
	)
	if opts.LenientWAL {
		log, cut, err = wal.ReadLogLenient(logR)
	} else {
		log, err = wal.ReadLog(logR)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("engine: restart: read log: %w", err)
	}
	var snap *storage.Snapshot
	if snapR != nil {
		snap, err = storage.ReadNewestSnapshot(snapR)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: restart: %w", err)
		}
		if snap != nil && validateCheckpoint(log, snap) != nil {
			snap = nil // inconsistent with the recovered log: full replay
		}
	}
	db, err := restart(defs, log, snap, opts)
	if err != nil {
		return nil, nil, err
	}
	return db, cut, nil
}

// validateCheckpoint checks that a decoded snapshot's bracketing checkpoint
// records exist in the recovered log and agree with it.
func validateCheckpoint(log *wal.Log, snap *storage.Snapshot) error {
	if snap.Begin == 0 || snap.End <= snap.Begin {
		return fmt.Errorf("engine: checkpoint LSNs out of order: begin %d, end %d", snap.Begin, snap.End)
	}
	if snap.End > log.End() {
		return fmt.Errorf("engine: checkpoint end LSN %d past recovered log end %d", snap.End, log.End())
	}
	b, err := log.Get(snap.Begin)
	if err != nil || b.Type != wal.TypeCheckpointBegin {
		return fmt.Errorf("engine: LSN %d is not a checkpoint-begin record", snap.Begin)
	}
	e, err := log.Get(snap.End)
	if err != nil || e.Type != wal.TypeCheckpointEnd || e.Mark != snap.Begin {
		return fmt.Errorf("engine: LSN %d is not the checkpoint-end record of begin %d", snap.End, snap.Begin)
	}
	return nil
}

// defsAgree cross-checks a caller-supplied table definition against the one
// reconstructed from a checkpoint (lifecycle state is allowed to differ: the
// caller's view is newer than the checkpoint's).
func defsAgree(sup, snap *catalog.TableDef) error {
	if len(sup.Columns) != len(snap.Columns) {
		return fmt.Errorf("%d columns supplied, checkpoint recorded %d", len(sup.Columns), len(snap.Columns))
	}
	for i := range sup.Columns {
		a, b := sup.Columns[i], snap.Columns[i]
		if a.Name != b.Name || a.Type != b.Type || a.Nullable != b.Nullable {
			return fmt.Errorf("column %d is %s %v (nullable=%v), checkpoint recorded %s %v (nullable=%v)",
				i, a.Name, a.Type, a.Nullable, b.Name, b.Type, b.Nullable)
		}
	}
	if len(sup.PrimaryKey) != len(snap.PrimaryKey) {
		return fmt.Errorf("primary key has %d columns, checkpoint recorded %d", len(sup.PrimaryKey), len(snap.PrimaryKey))
	}
	for i := range sup.PrimaryKey {
		if sup.PrimaryKey[i] != snap.PrimaryKey[i] {
			return fmt.Errorf("primary key column %d is position %d, checkpoint recorded %d", i, sup.PrimaryKey[i], snap.PrimaryKey[i])
		}
	}
	return nil
}

// validateOp cross-checks one operation record against the supplied schema
// before redo, so a definition that disagrees with the log fails fast with a
// descriptive error instead of replaying garbage (or silently skipping it on
// a checkpoint-bounded restart).
func validateOp(db *DB, rec *wal.Record) error {
	def, err := db.cat.Get(rec.Table)
	if err != nil {
		return fmt.Errorf("engine: restart: log LSN %d (%s) references table %s absent from the supplied schema", rec.LSN, rec.Type, rec.Table)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("engine: restart: log LSN %d (%s on %s) disagrees with the supplied schema: %s",
			rec.LSN, rec.Type, rec.Table, fmt.Sprintf(format, args...))
	}
	checkKinds := func(what string, vals value.Tuple, cols []int) error {
		for i, v := range vals {
			ci := i
			if cols != nil {
				ci = cols[i]
			}
			if !v.IsNull() && v.Kind() != def.Columns[ci].Type {
				return bad("%s value %d is %v, column %s is %v", what, i, v.Kind(), def.Columns[ci].Name, def.Columns[ci].Type)
			}
		}
		return nil
	}
	switch rec.OpType() {
	case wal.TypeInsert:
		if len(rec.Row) != len(def.Columns) {
			return bad("row has %d values, table has %d columns", len(rec.Row), len(def.Columns))
		}
		if len(rec.Key) != 0 && len(rec.Key) != len(def.PrimaryKey) {
			return bad("key has %d values, primary key has %d columns", len(rec.Key), len(def.PrimaryKey))
		}
		return checkKinds("row", rec.Row, nil)
	case wal.TypeUpdate:
		if len(rec.Key) != len(def.PrimaryKey) {
			return bad("key has %d values, primary key has %d columns", len(rec.Key), len(def.PrimaryKey))
		}
		if len(rec.New) != len(rec.Cols) {
			return bad("update carries %d values for %d columns", len(rec.New), len(rec.Cols))
		}
		for _, c := range rec.Cols {
			if c < 0 || c >= len(def.Columns) {
				return bad("column position %d out of range (table has %d columns)", c, len(def.Columns))
			}
		}
		// Re-keying updates carry the full post-image (guarded redo may need
		// to re-create the row from it).
		if len(rec.Row) != 0 && len(rec.Row) != len(def.Columns) {
			return bad("post-image has %d values, table has %d columns", len(rec.Row), len(def.Columns))
		}
		if err := checkKinds("post-image", rec.Row, nil); err != nil {
			return err
		}
		return checkKinds("update", rec.New, rec.Cols)
	case wal.TypeDelete:
		if len(rec.Key) != len(def.PrimaryKey) {
			return bad("key has %d values, primary key has %d columns", len(rec.Key), len(def.PrimaryKey))
		}
		if len(rec.Row) != 0 && len(rec.Row) != len(def.Columns) {
			return bad("before-image has %d values, table has %d columns", len(rec.Row), len(def.Columns))
		}
		return nil
	default:
		return nil
	}
}

// redo applies one operation record to storage during a full-replay redo
// pass (the heap starts empty, so every record applies exactly once).
func redo(db *DB, rec *wal.Record) error {
	tbl := db.Table(rec.Table)
	if tbl == nil {
		return fmt.Errorf("no table %s", rec.Table)
	}
	switch rec.OpType() {
	case wal.TypeInsert:
		return tbl.Insert(rec.Row, rec.LSN)
	case wal.TypeUpdate:
		// Plain updates are keyed by the pre-state key; CLR updates carry
		// the post-state key of the operation they compensate — both are
		// the key the record holds when the redo pass reaches them.
		_, err := tbl.Update(rec.Key, rec.Cols, rec.New, rec.LSN)
		return err
	case wal.TypeDelete:
		_, err := tbl.Delete(rec.Key)
		return err
	default:
		return nil
	}
}

// redoGuarded applies one operation record on top of a fuzzy checkpoint
// image, which may already contain this record's effect — or a newer row
// version — for any record the marks did not exclude. The per-row LSNs
// stored by the snapshot make the decision exact: apply only when the stored
// version is older than the record.
func redoGuarded(db *DB, rec *wal.Record) error {
	tbl := db.Table(rec.Table)
	if tbl == nil {
		return fmt.Errorf("no table %s", rec.Table)
	}
	key := rec.Key
	if len(key) == 0 && rec.OpType() == wal.TypeInsert {
		def, err := db.cat.Get(rec.Table)
		if err != nil {
			return fmt.Errorf("no definition for table %s", rec.Table)
		}
		key = def.KeyOf(rec.Row)
	}
	_, have, err := tbl.Get(key)
	found := err == nil
	switch rec.OpType() {
	case wal.TypeInsert:
		if found {
			if have >= rec.LSN {
				return nil // the snapshot saw this insert, or a newer version
			}
			// A stale version under the same key: replace it.
			if _, err := tbl.Delete(key); err != nil {
				return err
			}
		}
		return tbl.Insert(rec.Row, rec.LSN)
	case wal.TypeUpdate:
		post := keyAfterUpdate(db, rec)
		if post.Equal(key) {
			// The update does not move the row: a miss means the snapshot saw
			// a later version (re-keyed away by a later update), and a stored
			// LSN at or past the record means this update is already in.
			if !found || have >= rec.LSN {
				return nil
			}
			_, err := tbl.Update(key, rec.Cols, rec.New, rec.LSN)
			return err
		}
		// A re-keying update moves the row across partitions, which the fuzzy
		// scan snapshots at different moments, so the row may have been
		// captured under both keys or under neither. The destination decides
		// whether the update's effect is present; the pre-state key only
		// tells us whether a stale duplicate survived.
		_, haveDst, errDst := tbl.Get(post)
		if errDst == nil && haveDst >= rec.LSN {
			// The snapshot saw this update (or a later version of the row).
			// If it also captured the pre-state version, that row is a stale
			// duplicate the move already consumed: remove it.
			if found && have < rec.LSN {
				_, err := tbl.Delete(key)
				return err
			}
			return nil
		}
		if errDst == nil {
			// A destination occupant older than the update cannot have
			// survived to rec.LSN (its delete replays earlier in LSN order);
			// be defensive and replace it.
			if _, err := tbl.Delete(post); err != nil {
				return err
			}
		}
		if found && have < rec.LSN {
			_, err := tbl.Update(key, rec.Cols, rec.New, rec.LSN)
			return err
		}
		// Captured under neither key (the scan visited the destination
		// partition before the move and the source partition after it):
		// re-create the row from the logged post-image.
		if len(rec.Row) == 0 {
			return fmt.Errorf("re-keying update at LSN %d captured by the snapshot under neither key and carries no post-image: %w", rec.LSN, errSnapshotInsufficient)
		}
		return tbl.Insert(rec.Row, rec.LSN)
	case wal.TypeDelete:
		// A miss means the snapshot already saw the delete; a newer stored
		// version means a later re-insert won — the delete happened before
		// it and must not apply now.
		if !found || have >= rec.LSN {
			return nil
		}
		_, err := tbl.Delete(key)
		return err
	default:
		return nil
	}
}
