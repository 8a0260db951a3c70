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
}

// RecoverReport describes what Recover found and did.
type RecoverReport struct {
	// Orphaned reports whether an unfinished transformation was detected:
	// the log holds an attempt that never logged done, or the catalog holds
	// hidden targets or half-switched sources.
	Orphaned bool
	// DroppedTargets lists the orphaned target tables that were dropped.
	DroppedTargets []string
	// ReopenedSources lists source tables reverted from the dropping state
	// back to public use.
	ReopenedSources []string
	// Rerun reports whether the transformation was re-executed from scratch.
	Rerun bool
	// FinishedSwitchover reports that a transformation crashed after its
	// catalog switchover was restored complete from a checkpoint, and
	// recovery finished the remaining bookkeeping (dropping the doomed
	// sources) instead of rolling the switchover back.
	FinishedSwitchover bool
	// Transformation is the re-run transformation (metrics, phase and
	// operator inspection).
	Transformation *Transformation
}

// Recover detects and cleans up a transformation that was interrupted by a
// crash. The paper's recovery story (§6) is that a transformation needs no
// recovery protocol of its own: "aborting the transformation simply means
// that log propagation is stopped, and the transformed tables are deleted".
// Target tables are populated outside the log and a checkpoint does not
// write hidden tables, so after a restart an unfinished attempt's targets
// are absent or empty shells. Using the lifecycle records in the log
// (lifecycle.go), Recover picks one of three outcomes:
//
//   - Leave a covered, completed attempt alone. Its transform-done record is
//     covered — the engine was never restarted (Recover called again on a
//     live engine), or the restored checkpoint began after the done record
//     — so its published targets are complete. They are left alone even
//     when listed in Targets, which makes Recover idempotent.
//   - Finish a covered switchover. The attempt switched over before the
//     restored checkpoint began but never logged done: the restored targets
//     are public and complete, so recovery drops the doomed sources instead
//     of reopening them against a live copy.
//   - Otherwise drop the targets and reopen the sources caught
//     mid-switchover, then, with cfg.Rerun, run the transformation again
//     from scratch.
func Recover(ctx context.Context, db *engine.DB, cfg RecoverConfig) (RecoverReport, error) {
	var rep RecoverReport

	rc := db.RestoredCheckpoint()
	st := scanTransformLog(db.Log())

	// covered reports whether the effects preceding the record at lsn are
	// durably present in this database's storage: the engine was never
	// restarted (everything is live), the record was appended by this
	// process after its restart finished (e.g. by a re-run transformation),
	// or the restored checkpoint's fuzzy scan started after the record was
	// appended.
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
		tr, err := rebuildTransformation(db, meta)
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

	listed := make(map[string]bool, len(cfg.Targets))
	for _, t := range cfg.Targets {
		listed[t] = true
	}

	for _, name := range db.Catalog().List() {
		state, _, err := db.Catalog().StateOf(name)
		if err != nil {
			continue // dropped concurrently
		}
		switch {
		case protect[name]:
			// Restored transformation state; not an orphan.
		case listed[name] || state == catalog.StateHidden:
			if err := db.DropTable(name); err != nil {
				return rep, fmt.Errorf("core: recover: drop target %s: %w", name, err)
			}
			rep.DroppedTargets = append(rep.DroppedTargets, name)
		case state == catalog.StateDropping:
			if err := db.Reopen(name); err != nil {
				return rep, fmt.Errorf("core: recover: reopen source %s: %w", name, err)
			}
			rep.ReopenedSources = append(rep.ReopenedSources, name)
		}
	}
	rep.FinishedSwitchover = finishSwitch
	rep.Orphaned = len(rep.DroppedTargets) > 0 || len(rep.ReopenedSources) > 0 ||
		finishSwitch || (st.start != nil && st.done == nil)

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
