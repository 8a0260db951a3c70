// Package nbschema is an in-memory relational database with online,
// non-blocking schema transformations, reproducing Løland & Hvasshovd,
// "Online, Non-blocking Relational Schema Changes" (EDBT 2006).
//
// The database provides ACID transactions with strict two-phase record
// locking and an ARIES-style write-ahead log. On top of it, two non-trivial
// schema transformations — full outer join (denormalization) and vertical
// split (normalization) — run as low-priority background processes that
// never block user transactions: the new tables are populated from a fuzzy
// (lock-free) read and then caught up by redoing the log with idempotent
// propagation rules, until a brief latched synchronization switches
// applications over.
//
// A minimal session:
//
//	db := nbschema.Open()
//	db.CreateTable("customer",
//		[]nbschema.Column{
//			{Name: "id", Type: nbschema.Int},
//			{Name: "name", Type: nbschema.String, Nullable: true},
//			{Name: "zip", Type: nbschema.Int},
//			{Name: "city", Type: nbschema.String, Nullable: true},
//		}, "id")
//
//	tx := db.Begin()
//	tx.Insert("customer", 1, "Peter", 7050, "Trondheim")
//	tx.Commit()
//
//	tr, _ := db.Split(nbschema.SplitSpec{
//		Source: "customer", Left: "customer_base", Right: "place",
//		SplitOn: []string{"zip"}, RightOnly: []string{"city"},
//	}, nbschema.TransformOptions{Priority: 0.2})
//	err := tr.Run(ctx) // concurrent transactions keep running throughout
package nbschema

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/core"
	"nbschema/internal/debug"
	"nbschema/internal/engine"
	"nbschema/internal/obs"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Type is the type of a column.
type Type = value.Kind

// Column types.
const (
	Bool   = value.KindBool
	Int    = value.KindInt
	Float  = value.KindFloat
	String = value.KindString
	Bytes  = value.KindBytes
)

// Column describes one attribute of a table.
type Column struct {
	Name     string
	Type     Type
	Nullable bool
}

// Options configures a database.
type Options struct {
	// LockTimeout bounds lock waits. Deadlocks do not normally wait this
	// long: the lock manager maintains a waits-for graph and aborts a victim
	// with ErrDeadlock the moment a request would close a cycle, so the
	// timeout is a backstop for slow holders. Zero selects a 2s default.
	LockTimeout time.Duration
	// Faults is an optional fault-injection registry (NewFaultRegistry).
	// When set, the WAL, lock manager, tables and transformations hit named
	// fault points that tests can arm with errors, crashes and delays. Nil
	// (the default) costs a single nil check per instrumented seam.
	Faults *FaultRegistry
	// LenientWAL selects lenient log reading on Restart: a torn or corrupt
	// tail is truncated to the last valid record instead of failing
	// recovery. The default (strict) refuses any corrupt log.
	LenientWAL bool
	// Metrics is an optional metrics registry (NewMetricsRegistry). When
	// set, the engine, WAL, lock manager, storage and transformations report
	// counters, gauges and latency histograms into it, readable via
	// DB.Metrics or served over HTTP with MetricsHandler. Nil (the default)
	// keeps every instrumented site at a single nil check.
	Metrics *MetricsRegistry
	// TxnHistory bounds the per-transaction event history (begin, slow or
	// failed lock waits, WAL appends, commit/abort) served by DebugHandler
	// under /debug/txns. 0 selects 32 events; negative disables the history.
	TxnHistory int
	// SlowTxnThreshold logs transactions whose total runtime exceeds it into
	// a bounded slow-transaction log (served under /debug/txns). 0 selects
	// 100ms; negative disables the log.
	SlowTxnThreshold time.Duration
	// LockStripes overrides the lock manager's stripe count. Requests are
	// routed to a stripe by (table, key) hash; each stripe has its own mutex
	// and wait queues, so disjoint working sets never contend on a global
	// lock-table latch. 0 derives the count from GOMAXPROCS (rounded to a
	// power of two); 1 reproduces the single-mutex manager — the serial
	// ablation.
	LockStripes int
	// StoragePartitions overrides the number of heap partitions per table.
	// Rows are routed to a partition by primary-key hash; each partition has
	// its own read-write latch, and fuzzy scans visit partitions
	// independently (which is also what parallel initial population divides
	// its work by). 0 derives the count from GOMAXPROCS (rounded to a power
	// of two); 1 keeps one latch per table.
	StoragePartitions int
	// GroupCommit overrides the WAL group-commit batch cap: concurrent
	// appends stage into a batch whose leader assigns contiguous LSNs for
	// the whole batch under one log-mutex acquisition. 0 derives the cap
	// from GOMAXPROCS; 1 disables group commit (every append takes the log
	// mutex itself).
	GroupCommit int
	// PropagateWorkers sets the database-wide default worker count
	// transformations use for parallel initial population and parallel log
	// propagation. 0 selects GOMAXPROCS-1 (one core stays with the
	// foreground), at least 1 and at most 16; 1 runs transformations
	// serially. TransformOptions.PropagateWorkers overrides it per
	// transformation.
	PropagateWorkers int
	// CheckpointEvery takes an automatic fuzzy checkpoint whenever this many
	// WAL records have been appended since the last one (0 disables
	// automatic checkpoints). Checkpoints bound restart's redo pass to the
	// log suffix past the checkpoint; writers are never stopped. Requires
	// CheckpointSink.
	CheckpointEvery int
	// CheckpointSink supplies the destination stream for each automatic
	// checkpoint. It is called once per checkpoint from a background
	// goroutine; the returned writer is closed when the snapshot is sealed.
	// Returning a writer that appends to one long-lived stream is valid:
	// restart uses the newest complete checkpoint in the stream.
	CheckpointSink func() (io.WriteCloser, error)
	// HistoryInterval enables the telemetry history sampler: a background
	// goroutine snapshots the metrics registry every interval into a bounded
	// ring, computing per-window deltas, rates and latency percentiles
	// (DB.History, /debug/history). Go runtime telemetry (heap, goroutines,
	// GC pauses) is folded into the same timeline as go.* metrics. 0 (the
	// default) disables the sampler entirely — no goroutine is started. If
	// Metrics is nil, a registry is created automatically. Stop the sampler
	// with DB.Close.
	HistoryInterval time.Duration
	// HistorySize bounds the history ring (0 selects 256 samples).
	HistorySize int
	// HealthChecks enables the health watchdog: every history sample is run
	// through a rule engine (transformation stall, WAL latency spike,
	// deadlock rate, checkpoint age, goroutine/heap growth) producing an
	// OK/WARN/CRIT verdict served at /debug/health (200/503, a readiness
	// probe) and as engine.health.* gauges. Requires HistoryInterval > 0.
	HealthChecks bool
	// FlightRecorderDir enables the post-mortem flight recorder: on a
	// watchdog CRIT transition, a transformation stall or abort, or a manual
	// POST /debug/flightrecord, a diagnostic bundle (metric history, health
	// report, transformation traces, waits-for graph, slow transactions, WAL
	// positions, goroutine dump) is captured atomically into a timestamped
	// directory under this path. Empty (the default) disables the recorder.
	FlightRecorderDir string
	// FlightMinInterval rate-limits flight-recorder captures: triggers
	// arriving closer than this to the previous bundle are suppressed.
	// 0 selects 30s.
	FlightMinInterval time.Duration
	// Timeline enables the span-based timeline recorder: WAL group-commit
	// batches, fuzzy checkpoints, lock-stall episodes, and every
	// transformation's phases, propagation iterations, parallel worker groups
	// and populate partitions are recorded into a bounded ring, exportable as
	// Chrome trace-event JSON (DB.Timeline, /debug/timeline — open the output
	// in Perfetto or chrome://tracing); the ring keeps the newest 8192 events.
	// Off (the default), every instrumented site costs a single atomic load.
	Timeline bool
	// LagSLO is the freshness service-level objective: the maximum
	// source-commit→target-apply lag considered healthy. It arms the health
	// watchdog's freshness-lag rule (WARN past the SLO, CRIT past 4×; needs
	// HealthChecks) and is the SLO transformations judge switchover readiness
	// against when they enter synchronization (the EventFreshness trace
	// event). 0 disables both; TransformOptions.LagSLO overrides it per
	// transformation.
	LagSLO time.Duration
	// SnapshotReads enables MVCC version chains and snapshot-isolation
	// reads: DB.Snapshot opens a read-only transaction that sees the newest
	// versions committed at or before its begin timestamp without touching
	// the lock manager — readers never block writers and never block on
	// them. Writes keep strict 2PL and additionally enforce
	// first-committer-wins: overlapping writers racing on a record surface
	// the retryable ErrWriteConflict. Transformations on an MVCC database
	// build their initial image from a consistent snapshot instead of a
	// fuzzy scan (TransformOptions.FuzzyPopulation forces the ablation
	// arm). Off by default; when off the engine maintains no version chains
	// and the read/write paths pay nothing.
	SnapshotReads bool
}

func (o Options) engineOptions() engine.Options {
	var tl *obs.Timeline
	if o.Timeline {
		tl = obs.NewTimeline(0)
	}
	return engine.Options{
		Timeline:          tl,
		LockTimeout:       o.LockTimeout,
		Faults:            o.Faults,
		LenientWAL:        o.LenientWAL,
		Obs:               o.Metrics,
		TxnHistory:        o.TxnHistory,
		SlowTxnThreshold:  o.SlowTxnThreshold,
		LockStripes:       o.LockStripes,
		StoragePartitions: o.StoragePartitions,
		GroupCommit:       o.GroupCommit,
		SnapshotReads:     o.SnapshotReads,
		CheckpointEvery:   o.CheckpointEvery,
		CheckpointSink:    o.CheckpointSink,
	}
}

// MetricsRegistry collects named counters, gauges and latency histograms
// from every layer of the database. See the DESIGN.md "Observability"
// section for the metric names.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's metrics.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry returns an empty, enabled metrics registry to pass in
// Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler serves a registry's metrics over HTTP: Prometheus text
// format by default, JSON with ?format=json (or an application/json Accept
// header). A nil registry serves an empty snapshot.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return obs.Handler(reg) }

// DB is an in-memory transactional database supporting online schema
// transformations.
type DB struct {
	eng *engine.DB
	// propagateWorkers is the database-wide default for
	// TransformOptions.PropagateWorkers (0 = core's automatic default).
	propagateWorkers int
	// lagSLO is the database-wide default for TransformOptions.LagSLO.
	lagSLO time.Duration
	// snapshotReads records Options.SnapshotReads: transformations default
	// to snapshot-based initial population on an MVCC database.
	snapshotReads bool

	trMu       sync.Mutex
	transforms []*Transformation

	// Self-monitoring (see monitor.go): all nil when disabled.
	history  *obs.History
	watchdog *obs.Watchdog
	flight   *obs.FlightRecorder
}

// open is the one constructor behind Open, Restart and RestartWithCheckpoint:
// it settles the options, has build make the engine from them, and starts the
// monitoring they ask for, so a restarted database honours every option a
// freshly opened one does.
func open(opts []Options, build func(engine.Options) (*engine.DB, *WALCorruption, error)) (*DB, *WALCorruption, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.HistoryInterval > 0 && o.Metrics == nil {
		// The sampler is pointless without a registry; create one rather
		// than silently sampling nothing.
		o.Metrics = NewMetricsRegistry()
	}
	eng, cut, err := build(o.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	db := &DB{
		eng:              eng,
		propagateWorkers: o.PropagateWorkers,
		lagSLO:           o.LagSLO,
		snapshotReads:    o.SnapshotReads,
	}
	db.initMonitor(o)
	return db, cut, nil
}

// Open creates an empty database.
func Open(opts ...Options) *DB {
	db, _, _ := open(opts, func(eo engine.Options) (*engine.DB, *WALCorruption, error) {
		return engine.New(eo), nil, nil
	})
	return db
}

// Close stops the database's background monitoring (the telemetry history
// sampler). The database itself is in-memory and needs no other teardown;
// Close on a database opened without monitoring is a no-op.
func (db *DB) Close() error {
	if db.history != nil {
		db.history.Stop()
	}
	return nil
}

// Engine exposes the underlying engine for advanced integration (workload
// harnesses, benchmarks). Most applications never need it.
func (db *DB) Engine() *engine.DB { return db.eng }

// Metrics returns the registry the database was opened with (nil when
// Options.Metrics was not set).
func (db *DB) Metrics() *MetricsRegistry { return db.eng.Obs() }

// Timeline is the span-based timeline recorder behind Options.Timeline: a
// bounded ring of spans and instants across the engine and its
// transformations, exportable as Chrome trace-event JSON via
// WriteChromeTrace (loadable in Perfetto or chrome://tracing) and served at
// /debug/timeline by DebugHandler.
type Timeline = obs.Timeline

// Timeline returns the timeline recorder (nil when Options.Timeline was
// off).
func (db *DB) Timeline() *Timeline { return db.eng.Timeline() }

// CreateTable registers a new table with the given columns and primary key.
func (db *DB) CreateTable(name string, cols []Column, primaryKey ...string) error {
	cc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cc[i] = catalog.Column{Name: c.Name, Type: c.Type, Nullable: c.Nullable}
	}
	def, err := catalog.NewTableDef(name, cc, primaryKey)
	if err != nil {
		return err
	}
	return db.eng.CreateTable(def)
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error { return db.eng.DropTable(name) }

// CreateIndex adds a (optionally unique) index over the named columns.
func (db *DB) CreateIndex(table, name string, cols []string, unique bool) error {
	return db.eng.CreateIndex(table, name, cols, unique)
}

// Tables lists all table names, including hidden transformation targets.
func (db *DB) Tables() []string { return db.eng.Catalog().List() }

// Columns returns the column definitions of a table.
func (db *DB) Columns(table string) ([]Column, error) {
	def, err := db.eng.Catalog().Get(table)
	if err != nil {
		return nil, err
	}
	out := make([]Column, len(def.Columns))
	for i, c := range def.Columns {
		out[i] = Column{Name: c.Name, Type: c.Type, Nullable: c.Nullable}
	}
	return out, nil
}

// Rows returns the number of rows currently stored in a table.
func (db *DB) Rows(table string) (int, error) {
	tbl := db.eng.Table(table)
	if tbl == nil {
		return 0, fmt.Errorf("nbschema: no such table %s", table)
	}
	return tbl.Len(), nil
}

// ScanTable iterates all rows of a table without transactional locks (a
// fuzzy read). Intended for reporting and verification, not for isolation-
// sensitive reads.
func (db *DB) ScanTable(table string, fn func(row []any) bool) error {
	tbl := db.eng.Table(table)
	if tbl == nil {
		return fmt.Errorf("nbschema: no such table %s", table)
	}
	tbl.Scan(func(row value.Tuple, _ wal.LSN) bool {
		return fn(fromTuple(row))
	})
	return nil
}

// LogSize returns the number of records in the write-ahead log.
func (db *DB) LogSize() int { return db.eng.Log().Len() }

// Transformations returns every transformation created on this database via
// FullOuterJoin or Split, in creation order, whatever their phase. The debug
// surface uses it to serve /debug/transform.
func (db *DB) Transformations() []*Transformation {
	db.trMu.Lock()
	defer db.trMu.Unlock()
	return append([]*Transformation(nil), db.transforms...)
}

// DebugOptions tunes DebugHandlerOpts.
type DebugOptions struct {
	// Pprof additionally mounts the Go runtime profiling endpoints
	// (net/http/pprof) under /debug/pprof/. Off by default: profiles are a
	// production-sensitive surface and should be an explicit choice.
	Pprof bool
}

// DebugHandler serves the database's live introspection surface: active
// transactions with held and awaited locks (/debug/txns), the lock table
// (/debug/locks), the waits-for graph as JSON or Graphviz DOT
// (/debug/waitsfor, ?format=dot), live transformation progress and trace
// (/debug/transform), WAL position and flush statistics (/debug/wal), the
// telemetry history (/debug/history), the health watchdog's verdict
// (/debug/health — 200 healthy, 503 critical, a readiness probe), manual
// flight-recorder capture (POST /debug/flightrecord), per-transformation
// freshness watermarks (/debug/lag, ?slo=100ms for a switchover-readiness
// verdict) and the timeline as Chrome trace-event JSON (/debug/timeline,
// with Options.Timeline). Mount it next to MetricsHandler:
//
//	mux.Handle("/debug/", nbschema.DebugHandler(db))
func DebugHandler(db *DB) http.Handler {
	return DebugHandlerOpts(db, DebugOptions{})
}

// DebugHandlerOpts is DebugHandler with extras (pprof) enabled explicitly.
func DebugHandlerOpts(db *DB, o DebugOptions) http.Handler {
	return debug.Handler(debug.Config{
		DB:  db.eng,
		Obs: db.eng.Obs(),
		Transforms: func() []*core.Transformation {
			return db.Transformations()
		},
		History:  db.history,
		Watchdog: db.watchdog,
		Flight:   db.flight,
		Pprof:    o.Pprof,
		Timeline: db.eng.Timeline(),
	})
}
