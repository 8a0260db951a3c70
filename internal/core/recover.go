package core

import (
	"context"
	"fmt"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/wal"
)

// RecoverConfig configures crash recovery of an interrupted transformation.
type RecoverConfig struct {
	// Targets names tables known to be transformation targets; they are
	// dropped regardless of their catalog state. Tables in the hidden state
	// are treated as orphaned targets even when not listed here, since only
	// a transformation creates hidden tables.
	Targets []string
	// Rerun, when non-nil, is invoked after cleanup to restart the
	// transformation from scratch. It builds the transformation against the
	// recovered database; Recover then runs it to completion.
	Rerun func(db *engine.DB) (*Transformation, error)
	// Resume, when true, re-attaches to an in-flight transformation instead
	// of dropping its targets, provided the database was restarted from a
	// checkpoint whose snapshot covers the transformation's initial
	// population (lifecycle.go). Propagation then restarts from the logged
	// low-water mark — completed population work is never redone. When the
	// preconditions do not hold, recovery silently falls back to the
	// drop-and-rerun path.
	Resume bool
	// ResumeConfig tunes the resumed transformation. The function-valued
	// knobs of a Config (analyzer, sink, rerun hooks) cannot be
	// reconstructed from the log, so the caller supplies them anew; the
	// zero value gets the usual defaults.
	ResumeConfig Config
}

// RecoverReport describes what Recover found and did.
type RecoverReport struct {
	// Orphaned reports whether an unfinished transformation was detected.
	Orphaned bool
	// DroppedTargets lists the orphaned target tables that were dropped.
	DroppedTargets []string
	// ReopenedSources lists source tables reverted from the dropping state
	// back to public use.
	ReopenedSources []string
	// Rerun reports whether the transformation was re-executed from scratch.
	Rerun bool
	// Resumed reports whether an in-flight transformation was re-attached
	// and driven to completion from its logged low-water mark.
	Resumed bool
	// ResumeCursor is the propagation cursor the resumed transformation
	// restarted from (0 unless Resumed).
	ResumeCursor wal.LSN
	// FinishedSwitchover reports that a transformation crashed after its
	// catalog switchover was restored complete from a checkpoint, and
	// recovery finished the remaining bookkeeping (dropping the doomed
	// sources) instead of rolling the switchover back.
	FinishedSwitchover bool
	// Transformation is the re-run or resumed transformation (metrics,
	// phase and operator inspection).
	Transformation *Transformation
}

// Recover detects and cleans up a transformation that was interrupted by a
// crash. The paper's recovery story (§6) is that a transformation needs no
// recovery protocol of its own: target tables are populated outside the log,
// so after a full-replay restart they are empty shells — recovery simply
// drops them and, because the synchronization never completed, reverts any
// source caught mid-switchover to public use. The transformation can then be
// re-run from scratch (RecoverConfig.Rerun).
//
// Checkpoints refine that story, because a fuzzy snapshot durably captures
// the hidden targets mid-flight. Using the lifecycle records in the log
// (lifecycle.go), Recover distinguishes:
//
//   - An attempt whose transform-done record is covered — the database was
//     never restarted (Recover called again on a live engine), or the
//     restored checkpoint began after the done record. Its published targets
//     are complete; they are left alone even when listed in Targets, making
//     Recover idempotent.
//   - An attempt that switched over before a covering checkpoint but never
//     logged done. The restored targets are public and complete; recovery
//     finishes the switchover (drops the doomed sources) instead of
//     reopening them against a live copy.
//   - An in-flight attempt (population logged complete before the restored
//     checkpoint began, no switchover). With cfg.Resume, recovery rebuilds
//     the operator from the logged spec and resumes propagation at the
//     logged low-water mark; re-applied records are absorbed by the
//     idempotent rules.
//   - Anything else falls back to the paper's drop-and-rerun path.
func Recover(ctx context.Context, db *engine.DB, cfg RecoverConfig) (RecoverReport, error) {
	var rep RecoverReport

	rc := db.RestoredCheckpoint()
	var bound wal.LSN
	if rc != nil {
		bound = rc.Begin
	}
	st := scanTransformLog(db.Log(), bound)

	// covered reports whether the effects preceding the record at lsn are
	// durably present in this database's storage: the engine was never
	// restarted (everything is live), the record was appended by this
	// process after its restart finished (e.g. by a resumed or re-run
	// transformation), or the restored checkpoint's fuzzy scan started
	// after the record was appended.
	covered := func(lsn wal.LSN) bool {
		if !db.Restarted() || lsn > db.RestartLSN() {
			return true
		}
		return rc != nil && rc.Begin > lsn
	}

	// Tables recovery must not touch, keyed by name.
	protect := make(map[string]bool)

	finishSwitch := false
	switch {
	case st.done != nil && !st.doneMeta.Aborted && covered(st.done.LSN):
		// Completed attempt whose results survived; leave its targets alone,
		// and its retired sources too — with KeepSources they stay in the
		// dropping state by design, not because a switchover was cut short.
		for _, t := range st.doneMeta.Targets {
			protect[t] = true
		}
		for _, s := range st.doneMeta.Sources {
			protect[s] = true
		}
	case st.start != nil && st.done == nil && st.switched != nil && covered(st.switched.LSN):
		// Crashed between switchover and done with the switchover restored
		// complete: keep the public targets, finish dropping the sources.
		// A spec that cannot be decoded or rebuilt here is a hard error:
		// proceeding would drop the completed public targets and reopen the
		// doomed sources while still reporting the switchover as finished.
		finishSwitch = true
		meta, err := decodeTransformMeta(st.start)
		if err != nil {
			return rep, fmt.Errorf("core: recover: finish switchover: %w", err)
		}
		tr, err := rebuildTransformation(db, meta, cfg.ResumeConfig)
		if err != nil {
			return rep, fmt.Errorf("core: recover: finish switchover: %w", err)
		}
		for _, t := range tr.op.Targets() {
			protect[t] = true
		}
		for _, s := range tr.op.Sources() {
			if stt, _, err := db.Catalog().StateOf(s); err == nil && stt == catalog.StateDropping {
				if err := db.DropTable(s); err != nil {
					return rep, fmt.Errorf("core: recover: drop source %s: %w", s, err)
				}
			}
		}
	}

	// Resume eligibility: in-flight attempt, initial population logged
	// complete before the restored checkpoint began (so the snapshot holds
	// the populated image), no switchover.
	var resumeTr *Transformation
	var resumeCursor wal.LSN
	if cfg.Resume && !finishSwitch && rc != nil &&
		st.start != nil && st.switched == nil && st.done == nil &&
		st.populated != nil && st.populated.LSN < rc.Begin {
		if meta, err := decodeTransformMeta(st.start); err == nil {
			if tr, err := rebuildTransformation(db, meta, cfg.ResumeConfig); err == nil {
				resumeTr = tr
				resumeCursor = st.populated.Mark
				if st.progress > resumeCursor {
					resumeCursor = st.progress
				}
				for _, t := range tr.op.Targets() {
					protect[t] = true
				}
			}
		}
	}

	listed := make(map[string]bool, len(cfg.Targets))
	for _, t := range cfg.Targets {
		listed[t] = true
	}

	for _, name := range db.Catalog().List() {
		def, err := db.Catalog().Get(name)
		if err != nil {
			continue // dropped concurrently
		}
		switch {
		case protect[name]:
			// Restored transformation state; not an orphan.
		case listed[name] || def.State == catalog.StateHidden:
			if err := db.DropTable(name); err != nil {
				return rep, fmt.Errorf("core: recover: drop target %s: %w", name, err)
			}
			rep.DroppedTargets = append(rep.DroppedTargets, name)
		case def.State == catalog.StateDropping:
			if err := db.Reopen(name); err != nil {
				return rep, fmt.Errorf("core: recover: reopen source %s: %w", name, err)
			}
			rep.ReopenedSources = append(rep.ReopenedSources, name)
		}
	}
	rep.FinishedSwitchover = finishSwitch
	rep.Orphaned = len(rep.DroppedTargets) > 0 || len(rep.ReopenedSources) > 0 ||
		resumeTr != nil || finishSwitch

	if resumeTr != nil {
		err := resumeTr.Resume(ctx, resumeCursor)
		if err == nil {
			rep.Resumed = true
			rep.ResumeCursor = resumeCursor
			rep.Transformation = resumeTr
			return rep, nil
		}
		// A failed resume cleaned up its targets (Transformation.Resume);
		// fall through to the from-scratch path when one is configured.
		if cfg.Rerun == nil {
			return rep, fmt.Errorf("core: recover: resume: %w", err)
		}
	}

	if rep.Orphaned && !finishSwitch && cfg.Rerun != nil {
		tr, err := cfg.Rerun(db)
		if err != nil {
			return rep, fmt.Errorf("core: recover: rebuild transformation: %w", err)
		}
		if err := tr.Run(ctx); err != nil {
			return rep, fmt.Errorf("core: recover: re-run: %w", err)
		}
		rep.Rerun = true
		rep.Transformation = tr
	}
	return rep, nil
}
