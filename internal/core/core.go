// Package core implements the paper's contribution: non-blocking full outer
// join and split schema transformations, driven by a four-step framework
// (Section 3):
//
//  1. Preparation — create the hidden target tables and their indexes.
//  2. Initial population — write a fuzzy mark, read the source tables
//     fuzzily (no transactional locks), apply the operator, insert the
//     initial image.
//  3. Log propagation — redo the log onto the targets with idempotent,
//     operator-specific rules, in cycles bounded by fuzzy marks, at a
//     configurable low priority, until an analysis step decides the targets
//     are close enough to synchronize.
//  4. Synchronization — blocking commit, non-blocking abort, or
//     non-blocking commit (Section 3.4), with transferred-lock enforcement
//     per the Fig. 2 compatibility matrix.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/engine"
	"nbschema/internal/fault"
	"nbschema/internal/lock"
	"nbschema/internal/obs"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Phase is the lifecycle phase of a transformation.
type Phase int32

const (
	// PhaseIdle means Run has not been called.
	PhaseIdle Phase = iota
	// PhasePreparing covers target-table and index creation (§3.1).
	PhasePreparing
	// PhasePopulating covers the fuzzy read and initial image insert (§3.2).
	PhasePopulating
	// PhasePropagating covers the log-propagation cycles (§3.3).
	PhasePropagating
	// PhaseSynchronizing covers the final latched propagation (§3.4).
	PhaseSynchronizing
	// PhaseDraining covers post-switchover background propagation while old
	// transactions finish or roll back (non-blocking strategies).
	PhaseDraining
	// PhaseDone means the transformation committed and sources are dropped.
	PhaseDone
	// PhaseAborted means the transformation was abandoned and its target
	// tables deleted.
	PhaseAborted
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhasePreparing:
		return "preparing"
	case PhasePopulating:
		return "populating"
	case PhasePropagating:
		return "propagating"
	case PhaseSynchronizing:
		return "synchronizing"
	case PhaseDraining:
		return "draining"
	case PhaseDone:
		return "done"
	case PhaseAborted:
		return "aborted"
	default:
		return fmt.Sprintf("phase(%d)", int32(p))
	}
}

// SyncStrategy selects how synchronization completes the transformation.
type SyncStrategy int

const (
	// NonBlockingAbort latches the sources for one brief final propagation
	// and then forces transactions that were active on the source tables to
	// abort. Nonconflicting new transactions proceed immediately. This is
	// the strategy the paper's experiments use (sync < 1 ms).
	NonBlockingAbort SyncStrategy = iota
	// NonBlockingCommit latches the sources briefly and then lets old
	// transactions keep running against the source tables, with locks
	// mirrored between old and new tables until they finish.
	NonBlockingCommit
	// BlockingCommit blocks new transactions from the involved tables,
	// drains transactions holding locks on them, and then performs the
	// final propagation. Violates the non-blocking requirement; included as
	// the paper's baseline.
	BlockingCommit
)

// String returns the strategy name.
func (s SyncStrategy) String() string {
	switch s {
	case NonBlockingAbort:
		return "non-blocking-abort"
	case NonBlockingCommit:
		return "non-blocking-commit"
	case BlockingCommit:
		return "blocking-commit"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// StallPolicy decides what to do when log propagation cannot keep up with
// log generation ("If more log records are produced than the propagator is
// able to process, the synchronization is never started. If this is the
// case, the transformation should either be aborted or get higher
// priority.", §3.3).
type StallPolicy int

const (
	// StallBoost doubles the transformation priority on each detected stall.
	StallBoost StallPolicy = iota
	// StallAbort abandons the transformation on a detected stall.
	StallAbort
)

// Analysis summarizes one completed propagation iteration for the analyzer.
type Analysis struct {
	// Remaining is the number of log records generated during the iteration
	// that are still unpropagated (raw log records: the next iteration will
	// scan — and, with compaction enabled, compact — all of them).
	Remaining int
	// Applied is the number of log records applied in the iteration, after
	// net-effect compaction. Without compaction it equals Scanned.
	Applied int
	// Scanned is the number of raw log records the iteration consumed
	// before compaction. Zero on idle cycles.
	Scanned int
	// Duration is the wall-clock time of the iteration.
	Duration time.Duration
	// Iteration is the 1-based iteration number.
	Iteration int
}

// Analyzer decides, after each propagation iteration, whether to start
// synchronization (§3.3 suggests count-, time- and estimate-based policies).
type Analyzer func(Analysis) bool

// CountAnalyzer synchronizes when at most threshold log records remain.
func CountAnalyzer(threshold int) Analyzer {
	return func(a Analysis) bool { return a.Remaining <= threshold }
}

// TimeAnalyzer synchronizes when the last iteration completed within limit —
// the next (latched) iteration is then expected to be at most that long.
func TimeAnalyzer(limit time.Duration) Analyzer {
	return func(a Analysis) bool { return a.Duration <= limit }
}

// EstimateAnalyzer synchronizes when the estimated time to propagate the
// remaining records (at the last iteration's observed rate) is below limit.
// The rate is per *scanned* record: Remaining counts raw log records, and
// the next iteration will compact them just like this one did, so the raw
// consumption rate — which already folds in the compaction pass and the
// cheapness of coalesced-away records — is the right per-record cost.
func EstimateAnalyzer(limit time.Duration) Analyzer {
	return func(a Analysis) bool {
		processed := a.Scanned
		if processed == 0 {
			processed = a.Applied
		}
		if processed == 0 || a.Duration == 0 {
			return a.Remaining == 0
		}
		perRecord := a.Duration / time.Duration(processed)
		return time.Duration(a.Remaining)*perRecord <= limit
	}
}

// CompactionMode selects whether propagation coalesces each interval's log
// tail to its per-key net effect before rule application (see compact.go).
type CompactionMode int

const (
	// CompactionOn (the zero value) compacts every propagation interval.
	CompactionOn CompactionMode = iota
	// CompactionOff replays the raw log tail — the ablation baseline.
	CompactionOff
)

// Config tunes a transformation. The zero value is usable: full priority,
// count-based analysis with a small threshold, non-blocking abort.
type Config struct {
	// Priority is the fraction of wall-clock time the background
	// transformation may consume, in (0, 1]. 0 selects 1.0. Lower values
	// interfere less with user transactions but lengthen the
	// transformation (Fig. 4d).
	Priority float64
	// Strategy selects the synchronization strategy.
	Strategy SyncStrategy
	// Analyzer decides when to stop iterating and synchronize. Nil selects
	// CountAnalyzer(64).
	Analyzer Analyzer
	// MaxIterations bounds propagation cycles (0 = unlimited).
	MaxIterations int
	// StallPolicy selects the reaction to a propagation stall.
	StallPolicy StallPolicy
	// StallIterations is how many consecutive non-shrinking iterations
	// count as a stall (0 selects 8).
	StallIterations int
	// StallTimeout bounds a single propagation iteration: when exceeded the
	// stall policy fires immediately, mid-iteration (a starved iteration
	// may otherwise never reach the between-iterations analysis). 0
	// disables the in-iteration check.
	StallTimeout time.Duration
	// BatchSize is the number of log records (or initial-image rows)
	// processed per priority-throttle slice (0 selects 64).
	BatchSize int
	// FuzzyChunk is the chunk size of fuzzy scans (0 selects 256).
	FuzzyChunk int
	// SnapshotPopulate builds the initial image from a snapshot-isolation
	// read view instead of a fuzzy scan: population opens a snapshot right
	// after the begin fuzzy mark and every source scan reads the newest
	// versions committed at or before its timestamp — a transactionally
	// consistent cut, with no mid-scan updates mixed in. Propagation still
	// starts from the same fuzzy-mark position; the idempotent LSN-guarded
	// rules absorb the overlap. Requires engine.Options.SnapshotReads;
	// without it population falls back to the fuzzy scan (the 2PL ablation
	// arm, and the default).
	SnapshotPopulate bool
	// CheckConsistency enables §5.3 handling for split transformations:
	// C/U flags and the background consistency checker. Ignored by FOJ.
	CheckConsistency bool
	// KeepSources leaves the source tables in place (dropping state)
	// instead of deleting them after the drain completes. Useful for
	// verification and tests.
	KeepSources bool
	// SyncLatchTimeout bounds each attempt to take a source table's latch
	// at the start of synchronization (0 selects 50ms). A latch that stays
	// busy past the timeout degrades synchronization to another catch-up
	// propagation round instead of blocking indefinitely.
	SyncLatchTimeout time.Duration
	// SyncLatchRetries is how many timed latch attempts (each followed by a
	// catch-up round and exponential backoff) synchronization makes before
	// falling back to a blocking acquisition, which writer preference
	// guarantees will finish (0 selects 3).
	SyncLatchRetries int
	// PropagateWorkers is the number of worker goroutines used for the
	// parallel parts of a transformation: initial population (one heap
	// partition at a time per worker) and log propagation (batches of
	// records with disjoint conflict keys applied concurrently, when the
	// operator supports it). 0 selects DefaultPropagateWorkers; 1 runs both
	// serially — the ablation baseline and the deterministic-trace mode.
	PropagateWorkers int
	// Compaction selects net-effect compaction of each propagation
	// interval before rule application (operators that implement netKey
	// only; FOJ always replays raw). The zero value enables it;
	// CompactionOff is the ablation baseline.
	Compaction CompactionMode
	// Sink receives the transformation's structured trace events in addition
	// to the built-in bounded ring buffer (readable via Trace). Nil keeps
	// just the ring.
	Sink obs.Sink
	// Timeline records transformation spans (phases, iterations, worker
	// groups, populate partitions) for the Chrome trace-event export. Nil
	// falls back to the database's timeline (engine.Options.Timeline); a nil
	// or disabled recorder costs one atomic load per instrumented site.
	Timeline *obs.Timeline
	// LagSLO is the freshness service-level objective: the maximum
	// source-commit→target-apply lag considered healthy. Synchronization
	// logs an EventFreshness trace event naming the violation when the lag
	// watermark exceeds it; 0 disables the check (the event still reports
	// the watermarks).
	LagSLO time.Duration
}

func (c Config) withDefaults() Config {
	if c.Priority <= 0 || c.Priority > 1 {
		c.Priority = 1
	}
	if c.Analyzer == nil {
		c.Analyzer = CountAnalyzer(64)
	}
	if c.StallIterations <= 0 {
		c.StallIterations = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.FuzzyChunk <= 0 {
		c.FuzzyChunk = 256
	}
	if c.SyncLatchTimeout <= 0 {
		c.SyncLatchTimeout = 50 * time.Millisecond
	}
	if c.SyncLatchRetries <= 0 {
		c.SyncLatchRetries = 3
	}
	if c.PropagateWorkers <= 0 {
		c.PropagateWorkers = DefaultPropagateWorkers()
	}
	return c
}

// Metrics reports what a transformation did. Durations are wall clock.
type Metrics struct {
	PopulationDuration  time.Duration
	PropagationDuration time.Duration
	// SyncLatchDuration is the time the source tables were held under
	// exclusive latches during the final propagation — the only window in
	// which user transactions pause (the paper reports < 1 ms).
	SyncLatchDuration time.Duration
	DrainDuration     time.Duration
	TotalDuration     time.Duration
	Iterations        int
	// RecordsApplied is the number of log records propagation applied —
	// after net-effect compaction, when enabled. RecordsScanned is the raw
	// number of log records consumed; their ratio is the compaction win.
	RecordsApplied int64
	RecordsScanned int64
	// CompactIn/CompactOut total the records entering and leaving the
	// compactor; CompactFences counts records that passed through as
	// global fences, CompactFencedKeys the open per-key runs those fences
	// cut short. All zero when compaction is off or unsupported.
	CompactIn         int64
	CompactOut        int64
	CompactFences     int64
	CompactFencedKeys int64
	InitialImageRows  int64
	DoomedTxns        int
	CCRounds          int64
	CCRepairs         int64
}

// Transformation errors.
var (
	// ErrStalled reports that propagation could not keep up with log
	// generation and StallAbort was configured.
	ErrStalled = errors.New("core: propagation stalled behind log generation")
	// ErrAborted reports the transformation was cancelled.
	ErrAborted = errors.New("core: transformation aborted")
)

// operator is the transformation-specific half of the framework: FOJ and
// split implement it.
type operator interface {
	// Prepare creates the hidden target tables and their indexes.
	Prepare() error
	// Populate fuzzily reads the sources and inserts the initial image,
	// pacing itself through tick.
	Populate(tick func(int)) (rows int64, err error)
	// Sources are the tables whose log records drive propagation.
	Sources() []string
	// Targets are the created tables, published at synchronization.
	Targets() []string
	// Apply redoes one operation log record onto the targets.
	Apply(rec *wal.Record) error
	// MirrorKeys maps a locked source record to the target records its
	// locks transfer to, as (table, encoded key) pairs.
	MirrorKeys(table string, key value.Tuple) []TargetKey
	// MaintenanceTick lets the operator run background work between
	// batches (the split consistency checker).
	MaintenanceTick() error
	// ReadyToSync reports whether the operator allows synchronization to
	// start (the split checker requires all S records consistent, §5.3).
	ReadyToSync() bool
	// CCStats returns consistency-checker rounds and repairs (0, 0 when
	// not applicable).
	CCStats() (rounds, repairs int64)
	// describe returns the lifecycle metadata (kind + spec) serialized into
	// transform-start records, from which crash recovery learns the tables.
	describe() transformMeta
}

// TargetKey names one target-table record.
type TargetKey struct {
	Table string
	Key   string // encoded primary key
}

// Transformation drives one schema transformation end to end.
type Transformation struct {
	db     *engine.DB
	op     operator
	cfg    Config
	shadow *lock.ShadowTable
	faults *fault.Registry // inherited from db; nil-safe

	phase        atomic.Int32
	priority     atomic.Uint64 // math.Float64bits
	cancel       atomic.Bool
	latchTargets atomic.Bool  // post-switchover: serialize rule application
	applied      atomic.Int64 // records applied so far, live (Progress)

	// Lifecycle (lifecycle.go), run goroutine only: the start record is
	// logged, the sources were gated, the catalog has switched over.
	started, gated, switched bool

	// comp coalesces propagation intervals to their net effect; owned by
	// the run goroutine (lazily created on first compacted range).
	comp *compactor

	// Observability (see obs.go). sink is never nil after newTransformation;
	// ring is the built-in bounded buffer behind Trace.
	sink       obs.Sink
	ring       *obs.RingSink
	seq        atomic.Int64
	popRows    atomic.Int64
	ruleCounts [12]atomic.Int64
	lastRules  [12]int64 // baseline for per-iteration deltas (run goroutine only)

	// Registry-backed metric handles (nil when the DB has no registry).
	mPropagated  *obs.Counter
	mIterations  *obs.Counter
	mRunning     *obs.Gauge
	mBacklog     *obs.Gauge
	mCompactIn   *obs.Counter
	mCompactOut  *obs.Counter
	mCompactFenc *obs.Counter
	mLag         *obs.Histogram // core.commit_lag: source-commit→target-apply
	mAppliedLSN  *obs.Gauge     // core.applied_lsn: high-water mark
	mLagMs       *obs.Gauge     // core.lag_ms: low-water freshness lag

	// Freshness watermarks (freshness.go). appliedLSN is the high-water
	// mark: every log record at or below it has been applied to the targets.
	// lastLagNs is the commit lag observed at the most recently applied
	// timestamped commit record.
	appliedLSN atomic.Uint64
	lastLagNs  atomic.Int64
	fresh      freshCache

	// tl records timeline spans; nil-safe and shared with the engine unless
	// Config.Timeline overrides it.
	tl *obs.Timeline

	// Population read view (Config.SnapshotPopulate). Written by populate
	// before the scan workers start and cleared after they join, so the
	// worker goroutines read it race-free via their start edge.
	popSnapOn bool
	popTS     uint64

	mu       sync.Mutex
	metrics  Metrics
	cursor   wal.LSN // next log record to propagate
	lastA    Analysis
	runStart time.Time
	// ccPending tracks consistency-checker rounds in flight: checked key →
	// LSN of the CC-begin record; invalidated when the key is touched.
	ccPending map[string]wal.LSN
}

func newTransformation(db *engine.DB, cfg Config) *Transformation {
	tr := &Transformation{
		db:        db,
		cfg:       cfg.withDefaults(),
		shadow:    lock.NewShadowTable(),
		faults:    db.Faults(),
		ccPending: make(map[string]wal.LSN),
	}
	tr.tl = tr.cfg.Timeline
	if tr.tl == nil {
		tr.tl = db.Timeline()
	}
	tr.ring = obs.NewRingSink(0)
	sinks := obs.MultiSink{tr.ring}
	if tr.cfg.Sink != nil {
		sinks = append(sinks, tr.cfg.Sink)
	}
	if tr.tl != nil {
		// Phase transitions, iterations and lifecycle instants become
		// timeline spans on the coordinator track for free.
		sinks = append(sinks, obs.TimelineSink(tr.tl))
	}
	tr.sink = obs.Sink(tr.ring)
	if len(sinks) > 1 {
		tr.sink = sinks
	}
	if reg := db.Obs(); reg != nil {
		tr.mPropagated = reg.Counter("core.propagated")
		tr.mIterations = reg.Counter("core.iterations")
		tr.mRunning = reg.Gauge("core.running")
		tr.mBacklog = reg.Gauge("core.backlog")
		tr.mCompactIn = reg.Counter("core.compact.in")
		tr.mCompactOut = reg.Counter("core.compact.out")
		tr.mCompactFenc = reg.Counter("core.compact.fences")
		tr.mLag = reg.Histogram("core.commit_lag")
		tr.mAppliedLSN = reg.Gauge("core.applied_lsn")
		tr.mLagMs = reg.Gauge("core.lag_ms")
		tr.shadow.SetObs(reg)
	}
	tr.setPriority(tr.cfg.Priority)
	return tr
}

// faultHit fires a transformation fault point ("core.<name>"). The points
// are documented on the constants below; a nil or disarmed registry costs
// one nil check and one atomic load.
func (tr *Transformation) faultHit(name string) error {
	if tr.faults == nil {
		return nil
	}
	return tr.faults.Hit("core." + name)
}

// Phase returns the current lifecycle phase.
func (tr *Transformation) Phase() Phase { return Phase(tr.phase.Load()) }

func (tr *Transformation) setPhase(p Phase) {
	tr.phase.Store(int32(p))
	tr.emit(obs.EventPhase, nil)
}

// Priority returns the current propagation priority in (0, 1].
func (tr *Transformation) Priority() float64 {
	return float64frombits(tr.priority.Load())
}

// SetPriority adjusts the propagation priority while running.
func (tr *Transformation) SetPriority(p float64) {
	if p <= 0 || p > 1 {
		p = 1
	}
	tr.setPriority(p)
}

func (tr *Transformation) setPriority(p float64) {
	tr.priority.Store(float64bits(p))
}

// Abort requests cancellation; cancelling Run's context does the same.
// Before the switchover, propagation stops and the transformation rolls back
// ("Aborting the transformation simply means that log propagation is
// stopped, and that the transformed tables are deleted.", §6): the targets
// are dropped, the sources reopened, and Run returns ErrAborted. The
// switchover is the point of no return: past it the targets are live, so an
// abort no longer rolls back. The old transactions still alive are doomed and
// force-aborted instead, the drain completes, and Run returns nil with
// PhaseDone.
func (tr *Transformation) Abort() { tr.cancel.Store(true) }

// aborted reports a requested Abort or a cancelled context as ErrAborted.
func (tr *Transformation) aborted(ctx context.Context) error {
	if tr.cancel.Load() {
		return ErrAborted
	}
	if err := ctx.Err(); err != nil {
		return errors.Join(ErrAborted, err)
	}
	return nil
}

// Metrics returns a copy of the metrics collected so far.
func (tr *Transformation) Metrics() Metrics {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.metrics
}

// Shadow exposes the transferred-lock table (tests, introspection).
func (tr *Transformation) Shadow() *lock.ShadowTable { return tr.shadow }

// Remaining returns the number of unpropagated log records right now.
func (tr *Transformation) Remaining() int {
	tr.mu.Lock()
	cursor := tr.cursor
	tr.mu.Unlock()
	end := tr.db.Log().End()
	if cursor == 0 || cursor > end {
		return 0
	}
	return int(end - cursor + 1)
}

// Run executes the transformation end to end. An error before the
// switchover rolls it back (abort, lifecycle.go): the database is left as it
// was. An error past the switchover leaves the attempt switched over for
// Recover to finish.
func (tr *Transformation) Run(ctx context.Context) error {
	start := time.Now()
	tr.mu.Lock()
	tr.runStart = start
	tr.mu.Unlock()
	tr.mRunning.Add(1)
	defer tr.mRunning.Add(-1)
	defer tr.mBacklog.Set(0)
	defer func() {
		rounds, repairs := tr.op.CCStats()
		tr.mu.Lock()
		tr.metrics.TotalDuration = time.Since(start)
		tr.metrics.CCRounds = rounds
		tr.metrics.CCRepairs = repairs
		tr.mu.Unlock()
	}()

	err := tr.run(ctx)
	tr.db.ClearHooks()
	tr.shadow.SetEnforce(false)
	if err != nil && !tr.switched {
		if aerr := tr.abort(); aerr != nil {
			err = errors.Join(err, aerr)
		}
		tr.emit(obs.EventAbort, func(ev *obs.Event) {
			ev.Err = err.Error()
			ev.Duration = time.Since(start)
		})
		return err
	}
	if err == nil {
		err = tr.finish()
	}
	if err != nil {
		return err
	}
	tr.emit(obs.EventDone, func(ev *obs.Event) {
		ev.Duration = time.Since(start)
		ev.Rules = tr.RuleApplications()
		ev.Tables = append([]string(nil), tr.op.Targets()...)
	})
	return nil
}

// Fault points fired by a transformation when the database was opened with a
// fault registry. Phase points fire right after the phase becomes visible;
// the finer-grained points mark the seams a crash is most interesting at.
//
//	core.phase.preparing       entering step 1
//	core.phase.populating      entering step 2
//	core.phase.propagating     entering step 3
//	core.phase.synchronizing   entering step 4
//	core.fuzzymark             before appending a fuzzy mark (steps 2 and 3)
//	core.populate.chunk        after each initial-population work chunk
//	core.propagate.batch       at each batch start while redoing log records
//	core.sync.entry            synchronization, before latching the sources
//	core.sync.latched          sources latched, final propagation done
//	core.<transition>.before   before a lifecycle transition's record append
//	core.<transition>.after    after it (lifecycle.go)
func (tr *Transformation) run(ctx context.Context) error {
	// Step 1: preparation.
	tr.setPhase(PhasePreparing)
	if err := tr.faultHit("phase.preparing"); err != nil {
		return err
	}
	if err := tr.op.Prepare(); err != nil {
		return fmt.Errorf("core: prepare: %w", err)
	}
	tr.installHooks()
	if err := tr.start(); err != nil {
		return err
	}

	// Step 2: initial population.
	if err := tr.faultHit("phase.populating"); err != nil {
		return err
	}
	popStart := time.Now()
	if err := tr.populate(ctx); err != nil {
		return fmt.Errorf("core: populate: %w", err)
	}
	tr.mu.Lock()
	tr.metrics.PopulationDuration = time.Since(popStart)
	tr.mu.Unlock()

	// Step 3: log propagation.
	tr.setPhase(PhasePropagating)
	if err := tr.faultHit("phase.propagating"); err != nil {
		return err
	}
	propStart := time.Now()
	if err := tr.propagateLoop(ctx); err != nil {
		return fmt.Errorf("core: propagate: %w", err)
	}
	tr.mu.Lock()
	tr.metrics.PropagationDuration = time.Since(propStart)
	tr.mu.Unlock()

	// Step 4: synchronization (+ drain for the non-blocking strategies).
	tr.setPhase(PhaseSynchronizing)
	if err := tr.faultHit("phase.synchronizing"); err != nil {
		return err
	}
	if err := tr.synchronize(ctx); err != nil {
		return fmt.Errorf("core: synchronize: %w", err)
	}
	return nil
}

// populate writes the begin fuzzy mark, computes the propagation start
// position from the active-transaction table, and builds the initial image.
func (tr *Transformation) populate(ctx context.Context) error {
	if err := tr.faultHit("fuzzymark"); err != nil {
		return err
	}
	active := tr.db.ActiveTxns()
	mark := tr.db.Log().Append(&wal.Record{Type: wal.TypeFuzzyMark, Active: active})
	start := mark
	for _, a := range active {
		if a.First < start {
			start = a.First
		}
	}
	tr.mu.Lock()
	tr.cursor = start
	tr.mu.Unlock()
	// Records below the propagation start position are covered by the fuzzy
	// initial image; freshness lag during population is therefore measured
	// from the population-start cut (see DESIGN.md).
	tr.noteApplied(start - 1)
	tr.emit(obs.EventFuzzyMark, func(ev *obs.Event) { ev.LSN = uint64(mark) })

	// Snapshot-based population: open the read view after the fuzzy mark so
	// any commit the snapshot misses (stamped after its begin) has all its
	// log records at or above the propagation start position — either the
	// transaction was active at the mark (its First bounds start) or it
	// began after the mark. Commits the snapshot does include may be
	// replayed too; the LSN-guarded rules make that a no-op.
	if tr.cfg.SnapshotPopulate {
		snap, err := tr.db.BeginSnapshot()
		switch {
		case errors.Is(err, engine.ErrSnapshotsOff):
			// MVCC disabled on this database: degrade to the fuzzy scan.
		case err != nil:
			return fmt.Errorf("core: population snapshot: %w", err)
		default:
			tr.popSnapOn = true
			tr.popTS = snap.TS()
			defer func() {
				tr.popSnapOn = false
				snap.Close()
			}()
		}
	}

	// The tick callback cannot return an error to the operator, so an
	// injected chunk fault is carried out of the scan in chunkErr and
	// surfaces once Populate returns. A crash action still fires in place,
	// i.e. at the chunk boundary itself. Parallel population calls the
	// callback from several workers, so it is serialized by tickMu — the
	// throttler's duty-cycle accounting then covers the workers' combined
	// work, which is exactly the priority contract.
	th := newThrottler(tr)
	var tickMu sync.Mutex
	var chunkErr error
	chunkAcc := 0
	rows, err := tr.op.Populate(func(n int) {
		tickMu.Lock()
		defer tickMu.Unlock()
		th.tick(n)
		tr.popRows.Add(int64(n))
		chunkAcc += n
		if chunkAcc >= tr.cfg.FuzzyChunk {
			chunkAcc = 0
			tr.emit(obs.EventPopulateChunk, func(ev *obs.Event) {
				ev.Rows = tr.popRows.Load()
			})
		}
		if chunkErr == nil {
			chunkErr = tr.faultHit("populate.chunk")
		}
	})
	if err == nil {
		err = chunkErr
	}
	if err != nil {
		return err
	}
	tr.popRows.Store(rows)
	tr.emit(obs.EventPopulateChunk, func(ev *obs.Event) { ev.Rows = rows })
	tr.mu.Lock()
	tr.metrics.InitialImageRows = rows
	tr.mu.Unlock()
	return tr.aborted(ctx)
}

// scanPartition reads one source heap partition for initial population:
// a snapshot scan at the population read view's timestamp when one is
// active (Config.SnapshotPopulate on an MVCC-enabled database), otherwise
// the classic fuzzy scan. Both deliver chunked row copies with no latch
// held across the callback.
func (tr *Transformation) scanPartition(tbl *storage.Table, pi int, fn func(recs []storage.Record)) {
	if tr.popSnapOn {
		tbl.SnapshotScanPartition(pi, tr.popTS, tr.cfg.FuzzyChunk, func(recs []storage.Record) bool {
			fn(recs)
			return true
		})
		return
	}
	tbl.FuzzyScanPartition(pi, tr.cfg.FuzzyChunk, fn)
}

// installHooks wires transferred-lock enforcement and lock mirroring into
// the engine.
func (tr *Transformation) installHooks() {
	targets := make(map[string]bool)
	for _, t := range tr.op.Targets() {
		targets[t] = true
	}
	sources := make(map[string]bool)
	for _, s := range tr.op.Sources() {
		sources[s] = true
	}
	tr.db.SetHooks(engine.Hooks{
		CheckLock: func(txn wal.TxnID, table string, key value.Tuple, mode lock.Mode) error {
			if !tr.shadow.Enforcing() {
				return nil
			}
			switch {
			case targets[table]:
				// Direct access to a transformed table: check against
				// transferred locks under the Fig. 2 matrix.
				return tr.shadow.Check(txn, nsKey(table, key.Encode()), lock.OriginT, mode)
			case sources[table] && tr.cfg.Strategy == NonBlockingCommit:
				// Old transaction working on a source table after
				// synchronization: acquire the corresponding locks in the
				// transformed tables too ("all locks on source tables have
				// to be acquired on the corresponding records in the
				// transformed tables", §3.4).
				origin := tr.originOf(table)
				for _, tk := range tr.op.MirrorKeys(table, key) {
					for holder, hm := range tr.db.Locks().Holders(tk.Table, tk.Key) {
						if holder == txn {
							continue
						}
						if !lock.TransferCompatible(lock.OriginT, hm, origin, mode) {
							return fmt.Errorf("%w: direct lock by txn %d on %s",
								lock.ErrShadowConflict, holder, tk.Table)
						}
					}
					if err := tr.shadow.Check(txn, nsKey(tk.Table, tk.Key), origin, mode); err != nil {
						return err
					}
					tr.shadow.Place(txn, nsKey(tk.Table, tk.Key), origin, mode)
				}
			}
			return nil
		},
	})
}

// originOf maps a source table to its transferred-lock origin: the first
// source is R, any other is S.
func (tr *Transformation) originOf(table string) lock.Origin {
	srcs := tr.op.Sources()
	if len(srcs) > 0 && srcs[0] == table {
		return lock.OriginR
	}
	return lock.OriginS
}

// nsKey namespaces a target-record key by its table for the shadow table.
func nsKey(table, keyEnc string) string { return table + "\x00" + keyEnc }

func float64bits(f float64) uint64 { return math.Float64bits(f) }

func float64frombits(b uint64) float64 { return math.Float64frombits(b) }
