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
// are absent or empty shells. Recover folds the lifecycle records
// (lifecycle.go) into the latest attempt's last state and, by whether the
// storage covers that state, picks one of three outcomes:
//
//   - Leave a covered, completed attempt alone. Its transform-done record is
//     covered — the engine was never restarted (Recover called again on a
//     live engine), or the restored checkpoint began after the done record
//     — so its published targets are complete. They are left alone even
//     when listed in Targets, which makes Recover idempotent.
//   - Finish a covered switch. The attempt switched over before the restored
//     checkpoint began but never logged done: the restored targets are
//     public and complete, so recovery runs the attempt's finish.
//   - Otherwise roll back with the attempt's abort: drop the targets (listed,
//     hidden, or named by the open attempt's spec) and reopen the sources
//     caught mid-switchover. The done(aborted) record closes the attempt, so
//     a second Recover finds nothing to do. Then, with cfg.Rerun, run the
//     transformation again from scratch.
func Recover(ctx context.Context, db *engine.DB, cfg RecoverConfig) (RecoverReport, error) {
	var rep RecoverReport
	a := foldLifecycle(db.Log())

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
		rc := db.RestoredCheckpoint()
		return rc != nil && rc.Begin > lsn
	}

	keep := make(map[string]bool) // tables recovery must not touch
	drop := make(map[string]bool) // listed targets and an open attempt's
	for _, t := range cfg.Targets {
		drop[t] = true
	}
	switch {
	case a.done != nil && !a.doneMeta.Aborted && covered(a.done.LSN):
		// Completed attempt whose results survived; leave its targets alone,
		// and its retired sources too — with KeepSources they stay in the
		// dropping state by design, not because a switchover was cut short.
		for _, t := range append(a.doneMeta.Targets, a.doneMeta.Sources...) {
			keep[t] = true
		}
	case a.open() && a.switched != nil && covered(a.switched.LSN):
		// A spec that cannot be decoded here is a hard error: rolling back
		// would drop the completed public targets and reopen the doomed
		// sources while the switchover is durable.
		meta, targets, sources, err := a.tables()
		if err != nil {
			return rep, fmt.Errorf("core: recover: finish switchover: %w", err)
		}
		if err := finishAttempt(db, targets, sources, meta.KeepSources); err != nil {
			return rep, fmt.Errorf("core: recover: finish switchover: %w", err)
		}
		for _, t := range append(targets, sources...) {
			keep[t] = true
		}
		rep.FinishedSwitchover = true
	case a.open():
		_, targets, _, _ := a.tables() // best effort: listed and hidden targets go anyway
		for _, t := range targets {
			drop[t] = true
		}
	}

	for _, name := range db.Catalog().List() {
		state, _, err := db.Catalog().StateOf(name)
		switch {
		case err != nil || keep[name]:
			// Dropped concurrently, or restored transformation state.
		case drop[name] || state == catalog.StateHidden:
			rep.DroppedTargets = append(rep.DroppedTargets, name)
		case state == catalog.StateDropping:
			rep.ReopenedSources = append(rep.ReopenedSources, name)
		}
	}
	open := a.open() && !rep.FinishedSwitchover
	if err := abortAttempt(db, rep.DroppedTargets, rep.ReopenedSources, open); err != nil {
		return rep, fmt.Errorf("core: recover: %w", err)
	}
	rep.Orphaned = len(rep.DroppedTargets) > 0 || len(rep.ReopenedSources) > 0 ||
		rep.FinishedSwitchover || open

	if rep.Orphaned && !rep.FinishedSwitchover && cfg.Rerun != nil {
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
