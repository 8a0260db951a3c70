package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"nbschema/internal/lock"
	"nbschema/internal/obs"
	"nbschema/internal/wal"
)

// synchronize completes the transformation with the configured strategy
// (§3.4). All strategies share the same skeleton: take the source tables'
// latches for one final log-propagation iteration, switch the catalog over,
// then deal with the transactions that were still active on the sources.
func (tr *Transformation) synchronize(ctx context.Context) error {
	// Log the freshness watermarks at the moment the switchover decision is
	// taken; a configured LagSLO turns a stale target into a named violation
	// on the event (freshness.go).
	tr.emitFreshness()
	switch tr.cfg.Strategy {
	case BlockingCommit:
		return tr.syncBlockingCommit(ctx)
	case NonBlockingCommit:
		return tr.syncNonBlocking(ctx, false)
	default:
		return tr.syncNonBlocking(ctx, true)
	}
}

// sourceLatches returns the sources' latches in a deterministic order.
func (tr *Transformation) sourceLatches() []*lock.Latch {
	names := append([]string(nil), tr.op.Sources()...)
	sort.Strings(names)
	latches := make([]*lock.Latch, 0, len(names))
	for _, n := range names {
		if l := tr.db.Latch(n); l != nil {
			latches = append(latches, l)
		}
	}
	return latches
}

// withTargetLatches runs fn with every target table latched exclusively.
// After switchover the propagator uses this to serialize each rule
// application against user operations on the new tables.
func (tr *Transformation) withTargetLatches(fn func() error) error {
	names := append([]string(nil), tr.op.Targets()...)
	sort.Strings(names)
	var held []*lock.Latch
	for _, n := range names {
		if l := tr.db.Latch(n); l != nil {
			l.AcquireExclusive()
			held = append(held, l)
		}
	}
	err := fn()
	for i := len(held) - 1; i >= 0; i-- {
		held[i].ReleaseExclusive()
	}
	return err
}

// finalPropagation redoes the rest of the log while the source tables are
// latched. It returns the switchover LSN: every source operation is at or
// below it, and any transaction begun afterwards is "new".
func (tr *Transformation) finalPropagation() (wal.LSN, error) {
	tr.mu.Lock()
	from := tr.cursor
	tr.mu.Unlock()
	end := tr.db.Log().End()
	if _, _, _, err := tr.propagateRange(from, end, nil); err != nil {
		return 0, err
	}
	tr.mu.Lock()
	tr.cursor = end + 1
	tr.mu.Unlock()
	tr.noteApplied(end)
	return end, nil
}

// acquireSourceLatches takes all source latches exclusively, in sorted
// order. Each pass uses timed acquisitions: if any latch stays busy past
// SyncLatchTimeout the pass releases what it holds and degrades to another
// catch-up propagation round (keeping the eventual latched window short)
// followed by an exponential backoff. After SyncLatchRetries failed passes
// it falls back to blocking acquisition, which the latches' writer
// preference guarantees will finish.
func (tr *Transformation) acquireSourceLatches(ctx context.Context, latches []*lock.Latch) error {
	backoff := time.Millisecond
	for attempt := 0; attempt < tr.cfg.SyncLatchRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return errors.Join(ErrAborted, err)
		}
		if tr.cancel.Load() {
			return ErrAborted
		}
		held := 0
		for _, l := range latches {
			if !l.AcquireExclusiveTimeout(tr.cfg.SyncLatchTimeout) {
				break
			}
			held++
		}
		if held == len(latches) {
			return nil
		}
		for i := held - 1; i >= 0; i-- {
			latches[i].ReleaseExclusive()
		}
		tr.emit(obs.EventSyncRetry, func(ev *obs.Event) {
			ev.Iteration = attempt + 1
			ev.Tables = []string{latches[held].Name()}
		})
		// A busy latch degrades to one more propagation round so the log
		// does not run away while we wait.
		tr.mu.Lock()
		from := tr.cursor
		tr.mu.Unlock()
		end := tr.db.Log().End()
		if _, _, _, err := tr.propagateRange(from, end, nil); err != nil {
			return err
		}
		tr.mu.Lock()
		tr.cursor = end + 1
		tr.mu.Unlock()
		tr.noteApplied(end)
		time.Sleep(backoff)
		backoff *= 2
	}
	for _, l := range latches {
		l.AcquireExclusive()
	}
	return nil
}

// syncNonBlocking implements both non-blocking strategies; forceAbort
// selects non-blocking abort.
func (tr *Transformation) syncNonBlocking(ctx context.Context, forceAbort bool) error {
	if err := tr.faultHit("sync.entry"); err != nil {
		return err
	}
	latches := tr.sourceLatches()
	latchStart := time.Now()
	if err := tr.acquireSourceLatches(ctx, latches); err != nil {
		return err
	}

	end, err := tr.finalPropagation()
	if err == nil {
		err = tr.faultHit("sync.latched")
	}
	if err != nil {
		for _, l := range latches {
			l.ReleaseExclusive()
		}
		return err
	}

	// The transformed tables are now in the same state as the sources.
	// Locks that were maintained on the new tables mirror the locks of the
	// transactions still active on the sources; start enforcing them.
	tr.shadow.SetEnforce(true)

	// Catalog switchover.
	for _, t := range tr.op.Targets() {
		if err := tr.db.Publish(t); err != nil {
			for _, l := range latches {
				l.ReleaseExclusive()
			}
			return err
		}
	}
	// The targets are published before the switch record is appended, so a
	// checkpoint that begins after it holds them as public tables and
	// recovery may finish the switchover (lifecycle.go).
	tr.logSwitch(end)
	if err := tr.faultHit("sync.published"); err != nil {
		for _, l := range latches {
			l.ReleaseExclusive()
		}
		return err
	}
	var doomed []wal.TxnID
	if forceAbort {
		// Nobody may touch the sources anymore; active source transactions
		// are forced to abort (their undo bypasses the access check).
		doomed = tr.sourceTxns()
		for _, id := range doomed {
			tr.db.Doom(id)
		}
		for _, s := range tr.op.Sources() {
			if err := tr.db.MarkDropping(s, 0); err != nil {
				for _, l := range latches {
					l.ReleaseExclusive()
				}
				return err
			}
		}
	} else {
		// Non-blocking commit: transactions begun before the switchover may
		// keep working on the sources; locks are mirrored by the hooks.
		for _, s := range tr.op.Sources() {
			if err := tr.db.MarkDropping(s, end+1); err != nil {
				for _, l := range latches {
					l.ReleaseExclusive()
				}
				return err
			}
		}
	}
	// The drain must outlive: for non-blocking abort, only the doomed
	// transactions (everything else is shut out of the sources); for
	// non-blocking commit, every transaction alive at switchover — any of
	// them may still touch the sources.
	var oldTxns []wal.ActiveTxn
	if forceAbort {
		for _, id := range doomed {
			oldTxns = append(oldTxns, wal.ActiveTxn{ID: id})
		}
	} else {
		oldTxns = tr.db.ActiveTxns()
	}

	for i := len(latches) - 1; i >= 0; i-- {
		latches[i].ReleaseExclusive()
	}
	latchDur := time.Since(latchStart)
	tr.mu.Lock()
	tr.metrics.SyncLatchDuration = latchDur
	tr.metrics.DoomedTxns = len(doomed)
	tr.mu.Unlock()
	tr.emit(obs.EventSyncLatched, func(ev *obs.Event) {
		ev.Duration = latchDur
		ev.Tables = append([]string(nil), tr.op.Sources()...)
	})
	tr.emit(obs.EventSwitchover, func(ev *obs.Event) {
		ev.LSN = uint64(end)
		ev.Doomed = len(doomed)
		ev.Tables = append([]string(nil), tr.op.Targets()...)
	})

	// Post-switchover: user transactions run against the new tables while
	// the propagator finishes in the background.
	tr.setPhase(PhaseDraining)
	tr.latchTargets.Store(true)
	defer tr.latchTargets.Store(false)
	drainStart := time.Now()
	defer func() {
		tr.mu.Lock()
		tr.metrics.DrainDuration = time.Since(drainStart)
		tr.mu.Unlock()
	}()

	if forceAbort {
		for _, id := range doomed {
			if err := tr.db.ForceAbort(id); err != nil {
				return err
			}
		}
	}
	if err := tr.drain(ctx, oldTxns, forceAbort); err != nil {
		return err
	}
	if !tr.cfg.KeepSources {
		for _, s := range tr.op.Sources() {
			if err := tr.db.DropTable(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// sourceTxns returns the transactions currently holding locks on any source
// table.
func (tr *Transformation) sourceTxns() []wal.TxnID {
	seen := make(map[wal.TxnID]bool)
	var out []wal.TxnID
	for _, s := range tr.op.Sources() {
		for _, id := range tr.db.Locks().TxnsOnTable(s) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// drain keeps propagating the log as a background process until every
// transaction that was alive at switchover has ended and all transferred
// locks are released (§3.4: "The log propagation continues as a background
// process as long as old transactions are alive").
func (tr *Transformation) drain(ctx context.Context, oldTxns []wal.ActiveTxn, forceAbort bool) error {
	th := newThrottler(tr)
	for {
		tr.mu.Lock()
		from := tr.cursor
		tr.mu.Unlock()
		end := tr.db.Log().End()
		if _, _, _, err := tr.propagateRange(from, end, th); err != nil {
			return err
		}
		tr.mu.Lock()
		tr.cursor = end + 1
		tr.mu.Unlock()
		tr.noteApplied(end)

		if tr.shadow.LockedKeys() == 0 && !tr.anyOldAlive(oldTxns) {
			return nil
		}
		if tr.cancel.Load() {
			return ErrAborted
		}
		if err := ctx.Err(); err != nil {
			return errors.Join(ErrAborted, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (tr *Transformation) anyOldAlive(oldTxns []wal.ActiveTxn) bool {
	for _, a := range oldTxns {
		if tr.db.TxnByID(a.ID) != nil {
			return true
		}
	}
	return false
}

// syncBlockingCommit implements the blocking baseline: new transactions are
// denied the involved tables, transactions holding locks on the sources are
// allowed to finish, then one final propagation runs under exclusive latches
// and the new tables take over.
func (tr *Transformation) syncBlockingCommit(ctx context.Context) error {
	// Block transactions begun from now on; those already running (and in
	// particular those already holding locks) may finish.
	gate := tr.db.Log().End() + 1
	for _, s := range tr.op.Sources() {
		if err := tr.db.MarkDropping(s, gate); err != nil {
			return err
		}
	}
	blockStart := time.Now()

	latches := tr.sourceLatches()
	for {
		if err := ctx.Err(); err != nil {
			return errors.Join(ErrAborted, err)
		}
		if tr.cancel.Load() {
			return ErrAborted
		}
		if len(tr.sourceTxns()) == 0 {
			for _, l := range latches {
				l.AcquireExclusive()
			}
			if len(tr.sourceTxns()) == 0 {
				break // drained and latched
			}
			for i := len(latches) - 1; i >= 0; i-- {
				latches[i].ReleaseExclusive()
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	tr.mu.Lock()
	tr.metrics.DrainDuration = time.Since(blockStart)
	tr.mu.Unlock()

	latchStart := time.Now()
	if _, err := tr.finalPropagation(); err != nil {
		for i := len(latches) - 1; i >= 0; i-- {
			latches[i].ReleaseExclusive()
		}
		return err
	}
	for _, t := range tr.op.Targets() {
		if err := tr.db.Publish(t); err != nil {
			for i := len(latches) - 1; i >= 0; i-- {
				latches[i].ReleaseExclusive()
			}
			return err
		}
	}
	tr.logSwitch(tr.db.Log().End())
	for _, s := range tr.op.Sources() {
		if err := tr.db.MarkDropping(s, 0); err != nil { // deny everyone
			for i := len(latches) - 1; i >= 0; i-- {
				latches[i].ReleaseExclusive()
			}
			return err
		}
	}
	for i := len(latches) - 1; i >= 0; i-- {
		latches[i].ReleaseExclusive()
	}
	latchDur := time.Since(latchStart)
	tr.mu.Lock()
	tr.metrics.SyncLatchDuration = latchDur
	tr.mu.Unlock()
	tr.emit(obs.EventSyncLatched, func(ev *obs.Event) {
		ev.Duration = latchDur
		ev.Tables = append([]string(nil), tr.op.Sources()...)
	})
	tr.emit(obs.EventSwitchover, func(ev *obs.Event) {
		ev.LSN = uint64(gate)
		ev.Tables = append([]string(nil), tr.op.Targets()...)
	})

	if !tr.cfg.KeepSources {
		for _, s := range tr.op.Sources() {
			if err := tr.db.DropTable(s); err != nil {
				return err
			}
		}
	}
	return nil
}
