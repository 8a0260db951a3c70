// Package wal implements the write-ahead log the transformation framework
// propagates from. The log is sequential, append-only, and assigns each
// record a log sequence number (LSN). Both redo and undo information is
// logged, and undo operations produce compensating log records (CLRs) as in
// ARIES, exactly as the paper assumes (Section 1).
package wal

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/fault"
	"nbschema/internal/obs"
	"nbschema/internal/value"
)

// LSN is a log sequence number. 0 is the nil LSN; the first record appended
// to a log gets LSN 1. LSNs are dense: record n has LSN n.
type LSN uint64

// TxnID identifies a transaction. 0 is reserved for system activity
// (transformation bookkeeping records such as fuzzy marks).
type TxnID uint64

// Type enumerates log record types.
type Type uint8

const (
	// TypeBegin marks the start of a transaction.
	TypeBegin Type = iota
	// TypeCommit marks a committed transaction.
	TypeCommit
	// TypeAbort marks a rolled-back transaction (written after undo).
	TypeAbort
	// TypeInsert logs the insertion of a full row.
	TypeInsert
	// TypeUpdate logs an update of selected columns. Following the paper,
	// update records carry the primary key and the updated attribute values;
	// before-images are kept for undo but the log propagator never reads
	// them (Section 4.2, "Update Operations").
	TypeUpdate
	// TypeDelete logs a deletion; the before-image is kept for undo.
	TypeDelete
	// TypeCLR is a compensating log record written during undo. It is
	// redo-only: Redo carries the compensating operation, and the log
	// propagator replays it like a regular operation.
	TypeCLR
	// TypeFuzzyMark is written by the transformation framework at the start
	// of the initial population and at each log-propagation cycle boundary.
	// It snapshots the active-transaction table.
	TypeFuzzyMark
	// TypeCCBegin is written by the split consistency checker before it
	// fuzzily reads the source records contributing to one S record (§5.3).
	TypeCCBegin
	// TypeCCOK is written when the consistency checker found the records
	// consistent; it carries the correct image of the S record.
	TypeCCOK
	// TypeCheckpointBegin opens a fuzzy checkpoint. It carries no payload:
	// its LSN is the cut the snapshot is taken against, and the matching
	// TypeCheckpointEnd carries the bookkeeping gathered after it.
	TypeCheckpointBegin
	// TypeCheckpointEnd closes a fuzzy checkpoint. Mark is the LSN of the
	// matching begin record, Active the transactions live at begin time, and
	// Marks the per-table redo low-water marks: replaying the log from
	// min(Marks) over the snapshot's heap image reproduces the full-replay
	// state.
	TypeCheckpointEnd
	// TypeTransformStart is written when a schema transformation starts.
	// Meta carries the transformation spec (JSON) so recovery can rebuild
	// the operator without out-of-band state.
	TypeTransformStart
	// Codes 13 and 14 are retired (they held the population-complete mark
	// and per-iteration propagation progress marks); they stay reserved so
	// older logs decode with the codes below.
	_
	_
	// TypeTransformSwitch is written at switchover: Mark is the
	// synchronization point LSN.
	TypeTransformSwitch
	// TypeTransformDone is written when a transformation finishes, committed
	// or aborted. Recovery treats a committed start/done pair as finished
	// work and leaves the published tables alone.
	TypeTransformDone
)

// String returns the record type name.
func (t Type) String() string {
	switch t {
	case TypeBegin:
		return "begin"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeInsert:
		return "insert"
	case TypeUpdate:
		return "update"
	case TypeDelete:
		return "delete"
	case TypeCLR:
		return "clr"
	case TypeFuzzyMark:
		return "fuzzy-mark"
	case TypeCCBegin:
		return "cc-begin"
	case TypeCCOK:
		return "cc-ok"
	case TypeCheckpointBegin:
		return "checkpoint-begin"
	case TypeCheckpointEnd:
		return "checkpoint-end"
	case TypeTransformStart:
		return "transform-start"
	case TypeTransformSwitch:
		return "transform-switch"
	case TypeTransformDone:
		return "transform-done"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// IsOp reports whether the type describes a data operation (including the
// redo half of a CLR) that the log propagator must consider.
func (t Type) IsOp() bool {
	return t == TypeInsert || t == TypeUpdate || t == TypeDelete || t == TypeCLR
}

// ActiveTxn is one entry of the active-transaction table snapshotted into a
// fuzzy mark: the transaction and the LSN of its first log record. The
// propagator starts from the minimum First across the mark (§3.3).
type ActiveTxn struct {
	ID    TxnID
	First LSN
}

// TableMark is one per-table redo low-water mark carried by a checkpoint-end
// record: every effect of an operation on Table with LSN < Low is already in
// the checkpoint's heap snapshot, so redo for that table may start at Low.
type TableMark struct {
	Table string
	Low   LSN
}

// Record is one log record. Records are immutable once appended.
type Record struct {
	LSN  LSN
	Prev LSN // previous record of the same transaction (undo chain)
	Txn  TxnID
	Type Type

	// Operation payload (TypeInsert/TypeUpdate/TypeDelete and CLRs).
	Table string
	Key   value.Tuple // primary key of the affected record
	Row   value.Tuple // insert: full row; delete: before-image (undo only)
	Cols  []int       // update: positions of the updated columns
	Old   value.Tuple // update: old values of Cols (undo only)
	New   value.Tuple // update: new values of Cols

	// CLR fields.
	Redo     Type // the compensating operation: insert, update, or delete
	UndoNext LSN  // next record of the transaction to undo

	// Fuzzy-mark payload.
	Active []ActiveTxn

	// Consistency-checker payload (TypeCCBegin/TypeCCOK). Key carries the
	// checked split value; Row carries the correct image for TypeCCOK.

	// Checkpoint and transformation-lifecycle payload. For
	// TypeCheckpointEnd, Mark is the begin record's LSN and Marks the
	// per-table redo low-water marks. Transformation records use Mark as
	// their cursor/switchover LSN and Meta as an opaque spec payload.
	Mark  LSN
	Marks []TableMark
	Meta  []byte

	// Time is the record's wall-clock timestamp in unix nanoseconds, stamped
	// on commit records when the transaction commits (0 = unstamped). The
	// propagation apply path subtracts it from the apply time to measure
	// source-commit→target-apply lag.
	Time int64
}

// OpType returns the effective data operation of the record: its own type
// for plain operations, the Redo type for CLRs, and the record type itself
// otherwise.
func (r *Record) OpType() Type {
	if r.Type == TypeCLR {
		return r.Redo
	}
	return r.Type
}

// pendingAppend is one record staged for group commit: done is closed when
// the record's batch has been flushed (its LSN is then assigned), lead is
// closed to hand the staging goroutine leadership of the next batch.
type pendingAppend struct {
	rec  *Record
	done chan struct{}
	lead chan struct{}
}

// Log is an in-memory, append-only sequential log, safe for any number of
// concurrent writers and readers. Appends group-commit: concurrent appends
// stage into a batch, one of the appending goroutines becomes the batch
// leader, assigns contiguous LSNs to the whole batch under the log mutex at
// once and wakes the others — the in-memory analog of amortizing fsyncs.
// Every Append still blocks until its record's batch is flushed and returns
// the assigned LSN, so LSN monotonicity, CLR ordering and the dense-LSN
// restart invariant are exactly as in the serial log. The zero value is not
// usable; call NewLog.
type Log struct {
	faults *fault.Registry

	// Metric handles (nil when observability is off; nil handles are no-ops).
	mAppends, mFlushes, mFlushBytes *obs.Counter
	mGroupBatches, mGroupRecords    *obs.Counter
	mAppendLatency                  *obs.Histogram

	// Timeline recorder (nil or disabled = no-op): group-commit batches are
	// recorded as spans on the WAL track.
	tl *obs.Timeline

	mu   sync.RWMutex
	recs []*Record

	// approxBytes estimates the serialized size of the log so far, updated
	// per append without marshalling. Checkpoint byte triggers read it.
	approxBytes atomic.Int64

	// Group-commit staging area. gcBatch is the batch cap; 1 selects the
	// direct (serial) append path. batchBuf is the leader-owned batch
	// buffer, reused across batches — safe because gcActive admits exactly
	// one leader at a time and leadership hands off only after the previous
	// leader is done with it.
	gcMu     sync.Mutex
	staged   []*pendingAppend
	batchBuf []*pendingAppend
	gcActive bool
	gcBatch  int
}

// approxSize estimates a record's serialized frame size without marshalling:
// the 10-byte frame overhead, strings and meta at full length, and a flat
// per-element cost for tuples, column lists, active entries and marks.
func approxSize(rec *Record) int64 {
	n := 10 + 8 + len(rec.Table) + len(rec.Meta)
	n += 8 * (len(rec.Key) + len(rec.Row) + len(rec.Old) + len(rec.New))
	n += 4*len(rec.Cols) + 8*len(rec.Active)
	for _, m := range rec.Marks {
		n += 8 + len(m.Table)
	}
	if rec.Time != 0 {
		n += 9 // uvarint of a unix-nanosecond timestamp
	}
	return int64(n)
}

// ApproxBytes returns the running estimate of the log's serialized size.
func (l *Log) ApproxBytes() int64 { return l.approxBytes.Load() }

// DefaultGroupCommit returns the group-commit batch cap used when none is
// configured: 4×GOMAXPROCS, at least 8.
func DefaultGroupCommit() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// NewLog returns an empty log with the default group-commit batch cap.
func NewLog() *Log {
	return NewLogGroup(0)
}

// NewLogGroup returns an empty log with the given group-commit batch cap.
// batch <= 0 selects DefaultGroupCommit; batch = 1 disables group commit
// (every append takes the log mutex itself — for ablations).
func NewLogGroup(batch int) *Log {
	if batch <= 0 {
		batch = DefaultGroupCommit()
	}
	return &Log{gcBatch: batch}
}

// SetFaults installs a fault registry. The log exposes the point
// "wal.append", hit before each record is stored; because an in-memory
// append cannot fail, only the delay and crash actions are meaningful there
// (an error action's error is ignored). Call before the log is shared.
func (l *Log) SetFaults(reg *fault.Registry) { l.faults = reg }

// SetObs wires the log's metrics: "wal.append" counts appended records,
// "wal.flush" counts whole-log flushes (WriteTo, the in-memory analog of an
// fsync), "wal.flush.bytes" the bytes they wrote, and "wal.append_latency"
// times each append from staging to batch flush — the in-memory analog of
// commit-path fsync latency, and the quantity the health watchdog's
// flush-spike check watches. Call before the log is shared; a nil registry
// yields no-op handles.
func (l *Log) SetObs(reg *obs.Registry) {
	l.mAppends = reg.Counter("wal.append")
	l.mFlushes = reg.Counter("wal.flush")
	l.mFlushBytes = reg.Counter("wal.flush.bytes")
	l.mGroupBatches = reg.Counter("wal.group.batch")
	l.mGroupRecords = reg.Counter("wal.group.records")
	l.mAppendLatency = reg.Histogram("wal.append_latency")
}

// SetTimeline installs a timeline recorder: each group-commit batch is
// recorded as one span on the WAL track (leader takeover to batch flushed,
// args = records in the batch). Call before the log is shared; a nil or
// disabled recorder costs one atomic load per batch.
func (l *Log) SetTimeline(t *obs.Timeline) { l.tl = t }

// SetGroupCommit sets the group-commit batch cap (0 selects
// DefaultGroupCommit, 1 disables group commit). Call before the log is
// shared — restart uses it to re-apply the configured cap to an adopted log.
func (l *Log) SetGroupCommit(batch int) {
	if batch <= 0 {
		batch = DefaultGroupCommit()
	}
	l.gcBatch = batch
}

// GroupCommitBatch returns the configured batch cap (1 when group commit is
// disabled).
func (l *Log) GroupCommitBatch() int {
	if l.gcBatch <= 1 {
		return 1
	}
	return l.gcBatch
}

// Append assigns the next LSN to rec, stores it, and returns the LSN. With
// group commit enabled the record is staged and flushed together with other
// concurrent appends; the call returns once its batch is flushed.
func (l *Log) Append(rec *Record) LSN {
	_ = l.faults.Hit("wal.append")
	l.mAppends.Add(1)
	if l.mAppendLatency.Enabled() {
		start := time.Now()
		defer func() { l.mAppendLatency.Observe(time.Since(start)) }()
	}
	l.approxBytes.Add(approxSize(rec))
	if l.gcBatch <= 1 {
		l.mu.Lock()
		rec.LSN = LSN(len(l.recs) + 1)
		l.recs = append(l.recs, rec)
		lsn := rec.LSN
		l.mu.Unlock()
		return lsn
	}
	p := &pendingAppend{rec: rec, done: make(chan struct{}), lead: make(chan struct{})}
	l.gcMu.Lock()
	l.staged = append(l.staged, p)
	isLeader := !l.gcActive
	if isLeader {
		l.gcActive = true
	}
	l.gcMu.Unlock()
	if isLeader {
		// No batch was in flight, so p is the staging head and is flushed in
		// the batch this call leads.
		l.leadBatch()
		return p.rec.LSN
	}
	select {
	case <-p.done:
		return p.rec.LSN
	case <-p.lead:
		// Promoted: p is the staging head of the next batch.
		l.leadBatch()
		return p.rec.LSN
	}
}

// leadBatch drains one batch from the staging area: assigns contiguous LSNs
// in arrival order under the log mutex, wakes the batch's stagers, then
// either hands leadership to the next staged append or retires. Bounding
// each leader to one batch keeps append latency fair under load.
func (l *Log) leadBatch() {
	var spanStart time.Time
	if l.tl.Enabled() {
		spanStart = time.Now()
	}
	l.gcMu.Lock()
	n := len(l.staged)
	if n > l.gcBatch {
		n = l.gcBatch
	}
	// Copy the batch into the leader-owned buffer and compact the staging
	// area in place (nil-ing the freed tail so it pins nothing) — no
	// per-batch allocations.
	batch := append(l.batchBuf[:0], l.staged[:n]...)
	l.batchBuf = batch
	rest := copy(l.staged, l.staged[n:])
	clear(l.staged[rest:])
	l.staged = l.staged[:rest]
	l.gcMu.Unlock()

	l.mu.Lock()
	for _, p := range batch {
		p.rec.LSN = LSN(len(l.recs) + 1)
		l.recs = append(l.recs, p.rec)
	}
	l.mu.Unlock()
	l.mGroupBatches.Add(1)
	l.mGroupRecords.Add(int64(n))
	if !spanStart.IsZero() {
		l.tl.Span("group-commit batch", obs.CatWAL, obs.TidWAL, spanStart,
			time.Since(spanStart), int64(n))
	}
	for _, p := range batch {
		close(p.done)
	}
	clear(batch) // the reusable buffer must not pin flushed appends

	l.gcMu.Lock()
	if len(l.staged) > 0 {
		next := l.staged[0]
		l.gcMu.Unlock()
		close(next.lead)
		return
	}
	l.gcActive = false
	l.gcMu.Unlock()
}

// End returns the highest LSN assigned so far (0 for an empty log).
func (l *Log) End() LSN {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return LSN(len(l.recs))
}

// Get returns the record with the given LSN, or an error if out of range.
func (l *Log) Get(lsn LSN) (*Record, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if lsn == 0 || lsn > LSN(len(l.recs)) {
		return nil, fmt.Errorf("wal: no record with LSN %d", lsn)
	}
	return l.recs[lsn-1], nil
}

// Scan returns the records with from <= LSN <= to in ascending order. A to
// of 0 means "up to the current end". The returned slice aliases the log's
// backing array; records are immutable, so callers may only read them.
func (l *Log) Scan(from, to LSN) []*Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	end := LSN(len(l.recs))
	if to == 0 || to > end {
		to = end
	}
	if from == 0 {
		from = 1
	}
	if from > to {
		return nil
	}
	return l.recs[from-1 : to]
}

// Len returns the number of records in the log.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.recs)
}
