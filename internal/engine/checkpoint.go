package engine

import (
	"fmt"
	"io"
	"sort"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/obs"
	"nbschema/internal/storage"
	"nbschema/internal/wal"
)

// Fuzzy checkpoints (§3.2 applied to recovery): a checkpoint bounds the redo
// pass of the next restart to the log suffix written around the checkpoint,
// without ever stopping writers.
//
// Protocol:
//
//  1. Append a checkpoint-begin record; its LSN B names the checkpoint.
//  2. Snapshot the active-transaction table — each live transaction's first
//     LSN and the set of tables it has logged operations against. Because a
//     transaction records a touch BEFORE appending the operation, and log
//     appends are serialized, any operation with LSN < B has its touch
//     visible by the time the begin append returns: the capture taken after
//     it misses nothing below B.
//  3. Derive per-table redo low-water marks: mark[t] = min(B, min first LSN
//     over captured transactions that touched t); untouched tables get B.
//     Every operation on t with LSN < mark[t] belongs to a transaction that
//     ended before the capture, so its storage effect (including undo CLRs)
//     landed before the fuzzy scan began and is in the snapshot.
//  4. Write every table that is not hidden — full definition plus a fuzzy
//     partition scan — to the snapshot stream. Writers keep running; the
//     per-row LSNs let restart repair the mixed image by guarded redo. A
//     hidden table is a transformation target that is not yet published:
//     restart could only drop it again (core.Recover), so it is skipped.
//  5. Append a checkpoint-end record carrying B, the captured
//     active-transaction table and the marks; seal the snapshot footer with
//     the end LSN E and a CRC.
//
// Restart validates the pair (B is a begin record, E a matching end record
// within the recovered log) and falls back to full replay when the snapshot
// is torn, corrupt, or refers past the log.

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	// Begin and End are the LSNs of the checkpoint-begin and checkpoint-end
	// WAL records bracketing the snapshot.
	Begin, End wal.LSN
	// Tables is the number of tables serialized; Bytes the snapshot size.
	Tables int
	Bytes  int64
}

// Checkpoint takes a fuzzy checkpoint and writes its snapshot to w. Writers
// are never stopped; the snapshot may mix row versions, which the WAL suffix
// past the begin record repairs on restart. Checkpoints appended to the same
// stream accumulate; restart uses the newest complete one.
func (db *DB) Checkpoint(w io.Writer) (CheckpointStats, error) {
	var st CheckpointStats
	if err := db.faults.Hit("engine.checkpoint.begin"); err != nil {
		return st, fmt.Errorf("engine: checkpoint: %w", err)
	}
	var spanStart time.Time
	if db.timeline.Enabled() {
		spanStart = time.Now()
	}
	begin := db.log.Append(&wal.Record{Type: wal.TypeCheckpointBegin})

	// Capture the active-transaction table after the begin append (see the
	// protocol comment), then the table set, sorted for determinism.
	active, marks := db.checkpointMarks(begin)
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)

	// Resolve the table handles before the header is written: the snapshot
	// header carries the table count up front, so a table dropped between
	// the capture and its WriteTable call must not silently reduce the
	// number of sections (the reader would misparse the footer as a missing
	// table and discard this and every later checkpoint in the stream). A
	// handle resolved here keeps the heap alive even if the table is dropped
	// mid-scan; its rows then simply travel with the snapshot, exactly as if
	// the drop had happened just after the checkpoint ended. The state is
	// read here too, under the catalog lock, since a switchover may change
	// it while the snapshot is written.
	type entry struct {
		tbl   *storage.Table
		state catalog.State
	}
	tables := make([]entry, 0, len(names))
	for _, n := range names {
		tbl := db.Table(n)
		state, _, err := db.cat.StateOf(n)
		if tbl == nil || err != nil || state == catalog.StateHidden {
			continue
		}
		tables = append(tables, entry{tbl, state})
	}
	sw, err := storage.BeginSnapshot(w, begin, len(tables))
	if err != nil {
		return st, fmt.Errorf("engine: checkpoint: %w", err)
	}
	for _, e := range tables {
		if err := sw.WriteTable(e.tbl, e.state, 0); err != nil {
			return st, fmt.Errorf("engine: checkpoint: %w", err)
		}
	}

	if err := db.faults.Hit("engine.checkpoint.end"); err != nil {
		return st, fmt.Errorf("engine: checkpoint: %w", err)
	}
	end := db.log.Append(&wal.Record{
		Type:   wal.TypeCheckpointEnd,
		Mark:   begin,
		Active: active,
		Marks:  marks,
	})
	if err := db.faults.Hit("engine.checkpoint.footer"); err != nil {
		return st, fmt.Errorf("engine: checkpoint: %w", err)
	}
	if err := sw.Close(end); err != nil {
		return st, fmt.Errorf("engine: checkpoint: %w", err)
	}

	st = CheckpointStats{Begin: begin, End: end, Tables: len(tables), Bytes: sw.Bytes()}
	db.ckptLastLSN.Store(uint64(begin))
	db.met.ckptCount.Add(1)
	db.met.ckptBytes.Add(st.Bytes)
	db.met.ckptLast.Set(int64(begin))
	if !spanStart.IsZero() {
		db.timeline.Span("checkpoint", obs.CatCheckpoint, obs.TidCheckpoint,
			spanStart, time.Since(spanStart), st.Bytes)
	}
	return st, nil
}

// checkpointMarks snapshots the active-transaction table and computes the
// per-table redo low-water marks for a checkpoint whose begin record is at
// LSN begin.
func (db *DB) checkpointMarks(begin wal.LSN) ([]wal.ActiveTxn, []wal.TableMark) {
	db.txnMu.Lock()
	txns := make([]*Txn, 0, len(db.active))
	for _, t := range db.active {
		txns = append(txns, t)
	}
	db.txnMu.Unlock()

	low := make(map[string]wal.LSN)
	active := make([]wal.ActiveTxn, 0, len(txns))
	for _, t := range txns {
		first := t.BeginLSN()
		if first == 0 {
			// Begin raced with the capture; its begin record is at or after
			// ours, so everything it logs is in the redo suffix anyway.
			first = begin
		}
		active = append(active, wal.ActiveTxn{ID: t.id, First: first})
		if first >= begin {
			continue
		}
		for _, tbl := range t.TouchedTables() {
			if cur, ok := low[tbl]; !ok || first < cur {
				low[tbl] = first
			}
		}
	}

	db.mu.RLock()
	marks := make([]wal.TableMark, 0, len(db.tables))
	for name := range db.tables {
		m := begin
		if l, ok := low[name]; ok && l < m {
			m = l
		}
		marks = append(marks, wal.TableMark{Table: name, Low: m})
	}
	db.mu.RUnlock()
	sort.Slice(marks, func(i, j int) bool { return marks[i].Table < marks[j].Table })
	return active, marks
}

// maybeCheckpoint fires an automatic checkpoint when the configured record
// budget since the last one is exhausted. Checkpoints are single-flight: a
// trigger while one is running is dropped (the next commit re-evaluates).
func (db *DB) maybeCheckpoint() {
	sink, n := db.opts.CheckpointSink, db.opts.CheckpointEvery
	if sink == nil || n <= 0 || int(db.log.End())-int(db.ckptLastLSN.Load()) < n ||
		!db.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer db.ckptBusy.Store(false)
		w, err := sink()
		if err != nil {
			db.met.ckptErrors.Add(1)
			return
		}
		if _, err := db.Checkpoint(w); err != nil {
			db.met.ckptErrors.Add(1)
		}
		if err := w.Close(); err != nil {
			db.met.ckptErrors.Add(1)
		}
	}()
}

// RestoredCheckpoint describes the checkpoint a restart recovered from.
type RestoredCheckpoint struct {
	// Begin and End are the checkpoint's bracketing record LSNs.
	Begin, End wal.LSN
	// Tables and Rows count what the snapshot restored.
	Tables, Rows int
}

// RestoredCheckpoint returns the checkpoint this database was restarted
// from, or nil after a full-replay restart (no usable checkpoint).
func (db *DB) RestoredCheckpoint() *RestoredCheckpoint { return db.restoredCkpt }

// Restarted reports whether this database came out of crash recovery
// (Restart and friends) rather than New. Recovery layers use it to tell a
// live database — where table contents are trustworthy as-is — from a
// rebuilt one, where anything not covered by a checkpoint or the log was
// lost.
func (db *DB) Restarted() bool { return db.restarted }

// RestartLSN returns the log end at the moment restart recovery finished, or
// 0 for a database that was never restarted. Records at or below it were
// recovered from the log; records above it were appended live by this
// process, so their effects are present in storage unconditionally.
func (db *DB) RestartLSN() wal.LSN { return db.restartLSN }

// ReplayedRecords returns the number of operation records the restart redo
// pass applied. With a checkpoint this is bounded by the log suffix past the
// per-table marks — the recovery-bound guarantee CI gates on.
func (db *DB) ReplayedRecords() int64 { return db.replayed.Load() }
