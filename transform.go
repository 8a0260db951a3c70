package nbschema

import (
	"time"

	"nbschema/internal/core"
	"nbschema/internal/obs"
)

// JoinSpec describes a full outer join transformation R ⟗ S → Target
// (paper Section 4). See core.JoinSpec for field semantics.
type JoinSpec = core.JoinSpec

// SplitSpec describes a vertical split transformation T → Left, Right
// (paper Section 5).
type SplitSpec = core.SplitSpec

// SyncStrategy selects how synchronization completes a transformation.
type SyncStrategy = core.SyncStrategy

// The three synchronization strategies of §3.4.
const (
	// NonBlockingAbort force-aborts transactions still active on the
	// sources after a sub-millisecond latch window (the paper's default).
	NonBlockingAbort = core.NonBlockingAbort
	// NonBlockingCommit lets old transactions finish against the old
	// tables, mirroring locks between old and new.
	NonBlockingCommit = core.NonBlockingCommit
	// BlockingCommit drains the sources before switching (baseline; blocks
	// new transactions).
	BlockingCommit = core.BlockingCommit
)

// CompactionMode selects whether log propagation coalesces each interval's
// backlog to its per-key net effect before replay (see
// TransformOptions.CompactPropagation).
type CompactionMode = core.CompactionMode

// Compaction modes. The zero value is CompactionOn.
const (
	CompactionOn  = core.CompactionOn
	CompactionOff = core.CompactionOff
)

// Phase is a transformation lifecycle phase.
type Phase = core.Phase

// Transformation phases.
const (
	PhaseIdle          = core.PhaseIdle
	PhasePreparing     = core.PhasePreparing
	PhasePopulating    = core.PhasePopulating
	PhasePropagating   = core.PhasePropagating
	PhaseSynchronizing = core.PhaseSynchronizing
	PhaseDraining      = core.PhaseDraining
	PhaseDone          = core.PhaseDone
	PhaseAborted       = core.PhaseAborted
)

// Metrics reports what a transformation did.
type Metrics = core.Metrics

// Freshness is a snapshot of a transformation's freshness watermarks: the
// applied-LSN high-water mark, the record backlog, and the wall-clock lag
// (age of the oldest unapplied timestamped commit) — the number an operator
// reads before deciding it is safe to switch applications over. Obtain one
// from Transformation.Freshness; Freshness.SwitchoverReady(maxLag) is the
// probe. Served per transformation at /debug/lag.
type Freshness = core.Freshness

// Progress is a live snapshot of a running transformation: phase, iteration,
// backlog, observed propagation rate, and an ETA derived the same way
// EstimateAnalyzer decides synchronization (§3.3). Obtain one from
// Transformation.Progress at any time, from any goroutine.
type Progress = core.Progress

// TraceEvent is one structured event of a transformation's trace: phase
// transitions, fuzzy marks, population chunks, propagation iterations with
// per-rule applied counts, synchronization latching, switchover, stalls, and
// completion. Read the buffered trace with Transformation.Trace or stream
// events live via TransformOptions.Trace.
type TraceEvent = obs.Event

// TraceSink receives trace events as they happen. RingSink (the built-in
// default), FuncSink and MultiSink implement it.
type TraceSink = obs.Sink

// TraceFunc adapts a function to a TraceSink.
type TraceFunc = obs.FuncSink

// Transformation is a running (or completed) schema transformation. Create
// one with DB.FullOuterJoin or DB.Split, then call Run; user transactions
// proceed concurrently for the entire duration.
type Transformation = core.Transformation

// Transformation errors.
var (
	// ErrStalled reports that log propagation could not keep up and the
	// transformation was configured to give up.
	ErrStalled = core.ErrStalled
	// ErrTransformAborted reports that the transformation was cancelled
	// before its switchover: its target tables were deleted and its sources
	// reopened.
	ErrTransformAborted = core.ErrAborted
	// ErrInconsistentData reports a split whose source violates the
	// functional dependency on the split attributes (paper Example 1).
	ErrInconsistentData = core.ErrInconsistentData
)

// TransformOptions tunes a transformation. The zero value runs at full
// priority with non-blocking abort synchronization.
type TransformOptions struct {
	// Priority in (0, 1] is the fraction of time the background
	// transformation may consume; lower values interfere less with user
	// transactions but take longer (paper Fig. 4d). 0 selects 1.0.
	Priority float64
	// Strategy selects the synchronization strategy (§3.4).
	Strategy SyncStrategy
	// SyncThreshold starts synchronization when at most this many log
	// records remain to propagate (count-based analysis, §3.3). 0 selects
	// 64. Ignored when SyncWithin is set.
	SyncThreshold int
	// SyncWithin starts synchronization when the estimated remaining
	// propagation time drops below this duration (estimate-based analysis).
	SyncWithin time.Duration
	// AbortOnStall gives up (instead of raising priority) when the log
	// grows faster than it can be propagated.
	AbortOnStall bool
	// StallTimeout bounds one propagation iteration before the stall
	// policy fires (0 disables the in-iteration check).
	StallTimeout time.Duration
	// CheckConsistency enables §5.3 handling for splits of possibly
	// inconsistent data: C/U flags plus the background consistency checker.
	CheckConsistency bool
	// KeepSources leaves the (closed) source tables in place after the
	// transformation instead of deleting them.
	KeepSources bool
	// MaxIterations bounds propagation cycles (0 = unlimited).
	MaxIterations int
	// PropagateWorkers is the number of workers used for parallel initial
	// population and (for operators that support it) parallel log
	// propagation of independent-key batches. 0 inherits the database-wide
	// Options.PropagateWorkers (itself defaulting to GOMAXPROCS-1, at least
	// 1 and at most 16); 1 runs population and propagation serially.
	PropagateWorkers int
	// CompactPropagation selects net-effect compaction of each propagation
	// interval before replay (operators that support it; splits do, FOJ
	// replays raw): runs of updates to one source row coalesce to a single
	// update, and an insert that is deleted again within the interval
	// collapses to its trailing delete. The zero value (CompactionOn)
	// compacts; CompactionOff replays the raw log — the ablation baseline,
	// best paired with PropagateWorkers=1 for a fully serial reference run.
	CompactPropagation CompactionMode
	// Trace streams the transformation's structured trace events to a
	// custom sink as they happen, in addition to the bounded in-memory ring
	// readable via Transformation.Trace. Nil keeps just the ring.
	Trace TraceSink
	// FuzzyPopulation forces the fuzzy-scan initial population — the 2PL
	// ablation arm — on a database opened with Options.SnapshotReads, which
	// otherwise builds the initial image from a transactionally consistent
	// snapshot. Ignored (population is always fuzzy) without SnapshotReads.
	FuzzyPopulation bool
	// LagSLO is the freshness service-level objective this transformation is
	// judged against: entering synchronization logs an EventFreshness trace
	// event that names a violation when the source-commit→target-apply lag
	// watermark exceeds it (see Transformation.Freshness and
	// Transformation.SwitchoverReady). 0 inherits the database-wide
	// Options.LagSLO.
	LagSLO time.Duration
}

func (o TransformOptions) config(db *DB) core.Config {
	cfg := core.Config{
		Priority:         o.Priority,
		Strategy:         o.Strategy,
		CheckConsistency: o.CheckConsistency,
		KeepSources:      o.KeepSources,
		MaxIterations:    o.MaxIterations,
		StallTimeout:     o.StallTimeout,
		PropagateWorkers: o.PropagateWorkers,
		Compaction:       o.CompactPropagation,
		Sink:             o.Trace,
		LagSLO:           o.LagSLO,
		SnapshotPopulate: db.snapshotReads && !o.FuzzyPopulation,
	}
	if cfg.LagSLO == 0 {
		cfg.LagSLO = db.lagSLO
	}
	if cfg.PropagateWorkers == 0 {
		cfg.PropagateWorkers = db.propagateWorkers
	}
	if o.AbortOnStall {
		cfg.StallPolicy = core.StallAbort
	}
	switch {
	case o.SyncWithin > 0:
		cfg.Analyzer = core.EstimateAnalyzer(o.SyncWithin)
	case o.SyncThreshold > 0:
		cfg.Analyzer = core.CountAnalyzer(o.SyncThreshold)
	}
	if db.flight != nil {
		// A stalling or aborting transformation is a flight-recorder trigger:
		// the trace and backlog that explain it are gone once the run ends.
		trigger := obs.FuncSink(func(ev obs.Event) {
			switch ev.Kind {
			case obs.EventStall:
				_, _ = db.flight.Trigger("transform-stall")
			case obs.EventAbort:
				_, _ = db.flight.Trigger("transform-abort")
			}
		})
		if cfg.Sink != nil {
			cfg.Sink = obs.MultiSink{cfg.Sink, trigger}
		} else {
			cfg.Sink = trigger
		}
	}
	return cfg
}

// FullOuterJoin prepares a non-blocking full outer join transformation.
// Nothing runs until Transformation.Run is called.
func (db *DB) FullOuterJoin(spec JoinSpec, opts TransformOptions) (*Transformation, error) {
	tr, err := core.NewFullOuterJoin(db.eng, spec, opts.config(db))
	if err != nil {
		return nil, err
	}
	db.track(tr)
	return tr, nil
}

// Split prepares a non-blocking vertical split transformation.
func (db *DB) Split(spec SplitSpec, opts TransformOptions) (*Transformation, error) {
	tr, err := core.NewSplit(db.eng, spec, opts.config(db))
	if err != nil {
		return nil, err
	}
	db.track(tr)
	return tr, nil
}

// track registers a transformation for Transformations and the debug surface.
func (db *DB) track(tr *Transformation) {
	db.trMu.Lock()
	db.transforms = append(db.transforms, tr)
	db.trMu.Unlock()
}
