// Package engine implements the transactional database the transformation
// framework runs inside: strict two-phase record locking, ARIES-style
// write-ahead logging with compensating log records for undo, table latches,
// and restart recovery. This is the substrate the paper assumes (Section 1:
// redo and undo logging, CLRs, LSNs on records; Section 3: latches and
// record locks).
package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/fault"
	"nbschema/internal/lock"
	"nbschema/internal/obs"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Engine errors.
var (
	// ErrTxnDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxnDone = errors.New("engine: transaction already finished")
	// ErrTxnDoomed is returned when a transaction has been marked for
	// forced abort by a synchronization step; the caller must Abort it.
	ErrTxnDoomed = errors.New("engine: transaction doomed by schema transformation, abort required")
	// ErrNoAccess is returned when a transaction may not access a table
	// because of its lifecycle state (hidden target, dropped source).
	ErrNoAccess = errors.New("engine: table not accessible")
	// ErrWriteConflict is the first-committer-wins write-write conflict
	// surfaced in SnapshotReads mode: another transaction committed a newer
	// version of the record after this transaction began. Retryable.
	ErrWriteConflict = storage.ErrWriteConflict
	// ErrSnapshotsOff is returned by BeginSnapshot when the DB was opened
	// without SnapshotReads.
	ErrSnapshotsOff = errors.New("engine: snapshot reads disabled (Options.SnapshotReads)")
)

// Hooks lets an active schema transformation intercept engine activity.
// All fields are optional.
type Hooks struct {
	// CheckLock is consulted after the engine acquires a record lock and
	// before it applies the operation. Transformations use it to enforce
	// transferred-lock compatibility on the new table and to mirror locks
	// between old and new tables during non-blocking commit
	// synchronization. A non-nil error aborts the operation.
	CheckLock func(txn wal.TxnID, table string, key value.Tuple, mode lock.Mode) error
	// OnTxnEnd is called after a transaction commits or aborts and has
	// released its locks.
	OnTxnEnd func(txn wal.TxnID)
}

// Options configures a DB.
type Options struct {
	// LockTimeout bounds lock waits. Deadlocks are detected and aborted on
	// the blocking path (lock.ErrDeadlock); the timeout is the backstop for
	// genuinely slow holders. Zero selects lock.DefaultTimeout.
	LockTimeout time.Duration
	// Faults is an optional fault-injection registry. When set, the WAL,
	// the lock manager and every table created on this DB hit named fault
	// points, letting tests inject errors, crashes and delays at the hot
	// seams. A nil registry costs a single nil check per seam.
	Faults *fault.Registry
	// LenientWAL selects lenient log reading on restart: the log is
	// truncated at the first undecodable frame and recovery proceeds from
	// the valid prefix, with the cut reported to the caller (its Torn
	// method distinguishes a tail torn by a crash from an in-place flip).
	// The default (strict) refuses to recover from any corrupt log.
	LenientWAL bool
	// Obs is an optional observability registry. When set, the engine, the
	// WAL, the lock manager, every table and latch, and the fault registry
	// report metrics into it. A nil registry costs one nil check per
	// instrumented site.
	Obs *obs.Registry
	// TxnHistory bounds the per-transaction event history (begin, slow or
	// failed lock waits, WAL appends, commit/abort) kept for the debug
	// surface. 0 selects DefaultTxnHistory; negative disables the history.
	TxnHistory int
	// SlowTxnThreshold sends finished transactions that ran longer than this
	// to the bounded slow-transaction log (DB.SlowTxns, /debug/txns). 0
	// selects DefaultSlowTxnThreshold; negative disables the log.
	SlowTxnThreshold time.Duration
	// LockStripes shards the record-lock manager into this many stripes
	// (rounded up to a power of two). 0 selects lock.DefaultStripes
	// (GOMAXPROCS-derived); 1 reproduces the single-mutex manager.
	LockStripes int
	// StoragePartitions shards every table heap created on this DB into this
	// many partitions (rounded up to a power of two). 0 selects
	// storage.DefaultPartitions (GOMAXPROCS-derived); 1 reproduces the
	// single-latch heap.
	StoragePartitions int
	// GroupCommit caps the WAL group-commit batch. 0 selects
	// wal.DefaultGroupCommit (GOMAXPROCS-derived); 1 disables group commit
	// (every append flushes itself).
	GroupCommit int
	// CheckpointEvery triggers an automatic fuzzy checkpoint after this many
	// log records have accumulated since the last one. 0 disables automatic
	// checkpoints, which also require CheckpointSink.
	CheckpointEvery int
	// CheckpointSink supplies the destination stream for each automatic
	// checkpoint. It is called once per checkpoint from a background
	// goroutine; the writer is closed when the checkpoint completes.
	// Appending every checkpoint to the same underlying stream is valid —
	// restart keeps the newest complete one. Manual DB.Checkpoint calls do
	// not use the sink.
	CheckpointSink func() (io.WriteCloser, error)
	// Timeline is an optional span recorder: WAL group-commit batches,
	// fuzzy checkpoints, and slow lock waits are recorded as spans for the
	// Chrome-trace timeline export. A nil (or disabled) recorder costs one
	// atomic load per instrumented site.
	Timeline *obs.Timeline
	// SnapshotReads enables MVCC: every table keeps per-record version
	// chains, transactions get begin/commit timestamps, BeginSnapshot opens
	// read-only snapshot-isolation transactions that skip the lock manager,
	// and writes enforce first-committer-wins (a committed newer version
	// after the writer's begin surfaces the retryable ErrWriteConflict).
	// Off by default; the disabled mode costs one branch per write and
	// nothing on the read path.
	SnapshotReads bool
}

// engineMetrics bundles the engine-level metric handles. All handles are
// nil (and therefore no-ops) when the DB was opened without a registry.
type engineMetrics struct {
	txnBegin      *obs.Counter
	txnCommit     *obs.Counter
	txnAbort      *obs.Counter
	slowTxns      *obs.Counter
	txnActive     *obs.Gauge
	commitLatency *obs.Histogram

	ckptCount   *obs.Counter
	ckptBytes   *obs.Counter
	ckptErrors  *obs.Counter
	ckptLast    *obs.Gauge
	recReplayed *obs.Counter
	recSnapshot *obs.Counter
	recFull     *obs.Counter

	// Position gauges refreshed by SampleObs (telemetry-history pre-sample
	// hook) rather than on every append.
	walEnd   *obs.Gauge
	walBytes *obs.Gauge
	ckptAge  *obs.Gauge

	// MVCC / snapshot-isolation counters (SnapshotReads mode).
	snapBegin  *obs.Counter
	snapActive *obs.Gauge
	wconflicts *obs.Counter
	gcRuns     *obs.Counter
}

// DB is an in-memory transactional database.
type DB struct {
	cat      *catalog.Catalog
	log      *wal.Log
	locks    *lock.Manager
	faults   *fault.Registry
	obs      *obs.Registry
	timeline *obs.Timeline
	met      engineMetrics
	opts     Options

	mu      sync.RWMutex
	tables  map[string]*storage.Table
	latches map[string]*lock.Latch

	txnMu   sync.Mutex
	nextTxn wal.TxnID
	active  map[wal.TxnID]*Txn

	// Introspection: per-transaction history bound, slow-transaction log.
	histBound  int
	slowThresh time.Duration
	slowMu     sync.Mutex
	slow       []SlowTxn
	slowN      int64

	hookMu sync.RWMutex
	hooks  Hooks

	// MVCC state (SnapshotReads mode). commitTS is the commit clock: the
	// last assigned commit timestamp. Commit stamps the transaction's cell
	// and then advances the clock, both under commitMu, so BeginSnapshot
	// reading the clock never observes a timestamp whose versions are still
	// unstamped. snaps refcounts the active snapshot timestamps; oldestSnap
	// caches their minimum (MaxUint64 when none) and is shared with every
	// table as the chain-GC watermark.
	mvcc        bool
	commitMu    sync.Mutex
	commitTS    atomic.Uint64
	snapMu      sync.Mutex
	snaps       map[uint64]int
	oldestSnap  atomic.Uint64
	endsSinceGC atomic.Uint64

	// Checkpoint state: begin LSN of the last completed checkpoint, and the
	// single-flight gate for the automatic trigger. restored/replayed
	// describe what restart recovered from.
	ckptLastLSN  atomic.Uint64
	ckptBusy     atomic.Bool
	restoredCkpt *RestoredCheckpoint
	restarted    bool
	restartLSN   wal.LSN
	replayed     atomic.Int64
}

// New returns an empty database.
func New(opts Options) *DB {
	db := &DB{
		cat:     catalog.New(),
		log:     wal.NewLogGroup(opts.GroupCommit),
		locks:   lock.NewManagerStripes(opts.LockTimeout, opts.LockStripes),
		faults:  opts.Faults,
		opts:    opts,
		tables:  make(map[string]*storage.Table),
		latches: make(map[string]*lock.Latch),
		active:  make(map[wal.TxnID]*Txn),
	}
	switch {
	case opts.TxnHistory > 0:
		db.histBound = opts.TxnHistory
	case opts.TxnHistory == 0:
		db.histBound = DefaultTxnHistory
	}
	switch {
	case opts.SlowTxnThreshold > 0:
		db.slowThresh = opts.SlowTxnThreshold
	case opts.SlowTxnThreshold == 0:
		db.slowThresh = DefaultSlowTxnThreshold
	}
	if opts.SnapshotReads {
		db.mvcc = true
		db.snaps = make(map[uint64]int)
		db.oldestSnap.Store(^uint64(0))
	}
	db.log.SetFaults(opts.Faults)
	db.locks.SetFaults(opts.Faults)
	if opts.Timeline != nil {
		db.timeline = opts.Timeline
		db.log.SetTimeline(opts.Timeline)
	}
	if reg := opts.Obs; reg != nil {
		db.obs = reg
		db.met = engineMetrics{
			txnBegin:      reg.Counter("engine.txn.begin"),
			txnCommit:     reg.Counter("engine.txn.commit"),
			txnAbort:      reg.Counter("engine.txn.abort"),
			slowTxns:      reg.Counter("engine.txn.slow"),
			txnActive:     reg.Gauge("engine.txn.active"),
			commitLatency: reg.Histogram("engine.txn.commit_latency"),
			ckptCount:     reg.Counter("engine.checkpoint.count"),
			ckptBytes:     reg.Counter("engine.checkpoint.bytes"),
			ckptErrors:    reg.Counter("engine.checkpoint.errors"),
			ckptLast:      reg.Gauge("engine.checkpoint.last"),
			recReplayed:   reg.Counter("engine.recovery.replayed"),
			recSnapshot:   reg.Counter("engine.recovery.snapshot"),
			recFull:       reg.Counter("engine.recovery.full"),
			walEnd:        reg.Gauge("wal.end_lsn"),
			walBytes:      reg.Gauge("wal.bytes"),
			ckptAge:       reg.Gauge("engine.checkpoint.age"),
			snapBegin:     reg.Counter("engine.snapshot.begin"),
			snapActive:    reg.Gauge("engine.snapshot.active"),
			wconflicts:    reg.Counter("engine.mvcc.conflict"),
			gcRuns:        reg.Counter("engine.mvcc.gc.runs"),
		}
		db.log.SetObs(reg)
		db.locks.SetObs(reg)
		opts.Faults.SetObs(reg)
	}
	return db
}

// Obs returns the observability registry the DB was opened with (nil when
// observability is off).
func (db *DB) Obs() *obs.Registry { return db.obs }

// Timeline returns the span recorder the DB was opened with (nil when
// timeline recording is off). Transformations forward it to their own
// instrumentation.
func (db *DB) Timeline() *obs.Timeline { return db.timeline }

// SampleObs refreshes the engine's derived position gauges — the current end
// of log ("wal.end_lsn"), the approximate log size ("wal.bytes") and the
// records accumulated since the last completed checkpoint
// ("engine.checkpoint.age"). These are polled quantities, not event
// counters, so they are computed on demand: register SampleObs as a
// telemetry-history pre-sample hook instead of paying for gauge updates on
// every append.
func (db *DB) SampleObs() {
	end := int64(db.log.End())
	db.met.walEnd.Set(end)
	db.met.walBytes.Set(db.log.ApproxBytes())
	db.met.ckptAge.Set(end - int64(db.ckptLastLSN.Load()))
}

// Faults returns the fault registry the DB was opened with (nil when fault
// injection is off). Transformations forward it to their own fault points.
func (db *DB) Faults() *fault.Registry { return db.faults }

// Catalog returns the schema catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Log returns the write-ahead log.
func (db *DB) Log() *wal.Log { return db.log }

// Locks returns the record-lock manager.
func (db *DB) Locks() *lock.Manager { return db.locks }

// SetHooks installs transformation hooks (replacing any previous ones).
func (db *DB) SetHooks(h Hooks) {
	db.hookMu.Lock()
	db.hooks = h
	db.hookMu.Unlock()
}

// ClearHooks removes all transformation hooks.
func (db *DB) ClearHooks() { db.SetHooks(Hooks{}) }

func (db *DB) currentHooks() Hooks {
	db.hookMu.RLock()
	defer db.hookMu.RUnlock()
	return db.hooks
}

// CreateTable registers a table definition and allocates its storage.
func (db *DB) CreateTable(def *catalog.TableDef) error {
	if err := db.cat.Create(def); err != nil {
		return err
	}
	db.mu.Lock()
	tbl := storage.NewTablePartitions(def, db.opts.StoragePartitions)
	tbl.SetFaults(db.faults)
	if db.mvcc {
		tbl.SetMVCC(&db.commitTS, &db.oldestSnap)
	}
	latch := lock.NewLatch(def.Name)
	if db.obs != nil {
		tbl.SetObs(db.obs)
		latch.SetObs(db.obs)
	}
	db.tables[def.Name] = tbl
	db.latches[def.Name] = latch
	db.mu.Unlock()
	return nil
}

// DropTable removes a table, its storage and its latch.
func (db *DB) DropTable(name string) error {
	if err := db.cat.Drop(name); err != nil {
		return err
	}
	db.mu.Lock()
	if tbl := db.tables[name]; tbl != nil {
		tbl.DetachObs()
	}
	delete(db.tables, name)
	delete(db.latches, name)
	db.mu.Unlock()
	return nil
}

// CreateIndex adds an index over the named columns of a table.
func (db *DB) CreateIndex(table, name string, cols []string, unique bool) error {
	def, err := db.cat.Get(table)
	if err != nil {
		return err
	}
	idx, err := def.ColIndexes(cols)
	if err != nil {
		return err
	}
	tbl := db.Table(table)
	if tbl == nil {
		return fmt.Errorf("engine: no storage for table %s", table)
	}
	_, err = tbl.CreateIndex(name, idx, unique)
	return err
}

// Table returns the storage of a table (nil if absent). Transformations use
// this for direct, unlogged access to their hidden target tables.
func (db *DB) Table(name string) *storage.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Latch returns the latch of a table (nil if absent).
func (db *DB) Latch(name string) *lock.Latch {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.latches[name]
}

// accessibleAt reports whether a transaction that began at beginLSN may
// operate on the table right now. State and drop gate are read in one
// catalog call: a transformation's switchover may flip them concurrently.
func (db *DB) accessibleAt(def *catalog.TableDef, beginLSN wal.LSN) error {
	state, at, err := db.cat.StateOf(def.Name)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoAccess, def.Name)
	}
	switch state {
	case catalog.StatePublic:
		return nil
	case catalog.StateHidden:
		return fmt.Errorf("%w: %s is a hidden transformation target", ErrNoAccess, def.Name)
	case catalog.StateDropping:
		if beginLSN < at {
			return nil // an "old" transaction may finish its work
		}
		return fmt.Errorf("%w: %s is being dropped by a schema transformation", ErrNoAccess, def.Name)
	default:
		return fmt.Errorf("%w: %s in unknown state", ErrNoAccess, def.Name)
	}
}

// enter is the one way into a table for every transactional read and write,
// 2PL operations and snapshot reads alike. It resolves the table, takes its
// latch shared, and only then gates on the lifecycle state against the
// caller's begin LSN. Synchronization flips a source's state while it holds
// that latch exclusively, so an operation parked behind the switchover is
// judged by the state the switchover left, not the one it replaced (§3.4:
// past the switchover only doomed transactions touch the sources, and their
// undo bypasses this gate). On success the latch is returned held shared and
// the caller releases it; on denial it is already released.
func (db *DB) enter(name string, beginLSN wal.LSN) (*catalog.TableDef, *storage.Table, *lock.Latch, error) {
	def, tbl, latch, err := db.resolve(name)
	if err != nil {
		return nil, nil, nil, err
	}
	latch.AcquireShared()
	if err := db.accessibleAt(def, beginLSN); err != nil {
		latch.ReleaseShared()
		return nil, nil, nil, err
	}
	return def, tbl, latch, nil
}

// Begin starts a transaction. Its begin record is logged immediately so the
// active-transaction table snapshot in fuzzy marks always carries a first
// LSN for every live transaction.
func (db *DB) Begin() *Txn {
	db.txnMu.Lock()
	db.nextTxn++
	id := db.nextTxn
	txn := &Txn{db: db, id: id}
	if db.mvcc {
		// The commit clock advances only after cells are stamped, so every
		// commit at or below this read is fully visible.
		txn.beginTS = db.commitTS.Load()
	}
	if db.met.commitLatency.Enabled() || db.histBound > 0 || db.slowThresh > 0 {
		txn.started = time.Now()
	}
	db.active[id] = txn
	db.txnMu.Unlock()
	db.met.txnBegin.Add(1)
	db.met.txnActive.Add(1)

	lsn := db.log.Append(&wal.Record{Txn: id, Type: wal.TypeBegin})
	txn.begin.Store(uint64(lsn))
	txn.mu.Lock()
	txn.lastLSN = lsn
	txn.mu.Unlock()
	txn.record(TxnEvent{Time: txn.started, Kind: "begin", LSN: lsn})
	return txn
}

// ActiveTxns snapshots the active-transaction table as (ID, first LSN)
// pairs, the payload of a fuzzy mark (§3.2).
func (db *DB) ActiveTxns() []wal.ActiveTxn {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	out := make([]wal.ActiveTxn, 0, len(db.active))
	for id, txn := range db.active {
		first := txn.BeginLSN()
		if first == 0 {
			// Begin raced with the snapshot; be conservative and use the
			// current end of log (its begin record is at or before it).
			first = db.log.End()
		}
		out = append(out, wal.ActiveTxn{ID: id, First: first})
	}
	return out
}

// ActiveCount returns the number of live transactions.
func (db *DB) ActiveCount() int {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	return len(db.active)
}

// TxnByID returns the live transaction with the given id, or nil.
func (db *DB) TxnByID(id wal.TxnID) *Txn {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	return db.active[id]
}

// Doom marks a live transaction for forced abort: its next operation fails
// with ErrTxnDoomed. Non-blocking abort synchronization dooms every
// transaction still active on the source tables (§3.4).
func (db *DB) Doom(id wal.TxnID) {
	if txn := db.TxnByID(id); txn != nil {
		txn.doom()
	}
}

// ForceAbort rolls back a live transaction on the caller's goroutine. It is
// used by non-blocking abort synchronization. Aborting a transaction that
// already ended is a no-op.
func (db *DB) ForceAbort(id wal.TxnID) error {
	txn := db.TxnByID(id)
	if txn == nil {
		return nil
	}
	err := txn.Abort()
	if errors.Is(err, ErrTxnDone) {
		return nil
	}
	return err
}

func (db *DB) endTxn(id wal.TxnID) {
	db.txnMu.Lock()
	delete(db.active, id)
	db.txnMu.Unlock()
	db.met.txnActive.Add(-1)
	db.locks.ReleaseAll(id)
	if h := db.currentHooks(); h.OnTxnEnd != nil {
		h.OnTxnEnd(id)
	}
	if db.mvcc && db.endsSinceGC.Add(1)%1024 == 0 {
		// Periodic full sweep: the on-write trim keeps hot chains short, but
		// keys never written again (and dead-map tombstones) need a sweep.
		db.RunGC()
	}
	db.maybeCheckpoint()
}

// resolve returns the definition, storage and latch of a table.
func (db *DB) resolve(name string) (*catalog.TableDef, *storage.Table, *lock.Latch, error) {
	def, err := db.cat.Get(name)
	if err != nil {
		return nil, nil, nil, err
	}
	db.mu.RLock()
	tbl := db.tables[name]
	latch := db.latches[name]
	db.mu.RUnlock()
	if tbl == nil || latch == nil {
		return nil, nil, nil, fmt.Errorf("engine: table %s has no storage", name)
	}
	return def, tbl, latch, nil
}

// ReadCommitted returns the current row under key if it exists, taking no
// transactional locks (a fuzzy single-record read, used by examples and
// verification).
func (db *DB) ReadCommitted(table string, key value.Tuple) (value.Tuple, bool) {
	tbl := db.Table(table)
	if tbl == nil {
		return nil, false
	}
	row, _, err := tbl.Get(key)
	if err != nil {
		return nil, false
	}
	return row, true
}
