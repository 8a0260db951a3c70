package core

import (
	"context"
	"sort"
	"time"

	"nbschema/internal/lock"
	"nbschema/internal/obs"
	"nbschema/internal/wal"
)

// synchronize completes the transformation with the configured strategy
// (§3.4). All strategies share one skeleton: take the source tables' latches
// for one final log-propagation iteration, switch the catalog over
// (switchover, lifecycle.go), then deal with the transactions that were still
// active on the sources. BlockingCommit gates the sources and waits for those
// transactions before it latches, so it has nothing left to drain.
func (tr *Transformation) synchronize(ctx context.Context) error {
	// Log the freshness watermarks at the moment the switchover decision is
	// taken; a configured LagSLO turns a stale target into a named violation
	// on the event (freshness.go).
	tr.emitFreshness()
	if err := tr.faultHit("sync.entry"); err != nil {
		return err
	}
	latches := tr.sourceLatches()
	latchStart := time.Now()
	if tr.cfg.Strategy == BlockingCommit {
		if err := tr.awaitSourceTxns(ctx, latches); err != nil {
			return err
		}
		latchStart = time.Now()
	} else if err := tr.acquireSourceLatches(ctx, latches); err != nil {
		return err
	}

	// Redo the rest of the log while the sources are latched: end is the
	// switchover LSN. Every source operation is at or below it, and any
	// transaction begun afterwards is "new".
	end, err := tr.catchUp(nil)
	if err == nil {
		err = tr.faultHit("sync.latched")
	}
	var doomed []wal.TxnID
	var old []wal.ActiveTxn
	if err == nil {
		// The transformed tables are now in the same state as the sources.
		// Locks that were maintained on the new tables mirror the locks of
		// the transactions still active on the sources; start enforcing them.
		tr.shadow.SetEnforce(true)
		switch tr.cfg.Strategy {
		case NonBlockingCommit:
			// Transactions begun before the switchover may keep working on
			// the sources, their locks mirrored by the hooks; the drain must
			// outlive every one of them.
			if err = tr.switchover(end, end+1); err == nil {
				old = tr.db.ActiveTxns()
			}
		case NonBlockingAbort:
			// Nobody may touch the sources anymore; the transactions active
			// on them are forced to abort (their undo bypasses the access
			// check), and the drain outlives just those.
			if err = tr.switchover(end, 0); err == nil {
				doomed = tr.sourceTxns()
				for _, id := range doomed {
					tr.db.Doom(id)
				}
			}
		default:
			err = tr.switchover(end, 0)
		}
	}
	release(latches)
	if err != nil {
		return err
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
	if tr.cfg.Strategy == BlockingCommit {
		return nil
	}

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
	if len(doomed) > 0 {
		for _, id := range doomed {
			old = append(old, wal.ActiveTxn{ID: id})
		}
		if err := tr.forceAbort(old); err != nil {
			return err
		}
	}
	return tr.drain(ctx, old)
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

// release releases exclusively held latches in reverse order.
func release(latches []*lock.Latch) {
	for i := len(latches) - 1; i >= 0; i-- {
		latches[i].ReleaseExclusive()
	}
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
	release(held)
	return err
}

// catchUp redoes the log up to its current end, advances the cursor past
// it, and returns that end.
func (tr *Transformation) catchUp(th *throttler) (wal.LSN, error) {
	tr.mu.Lock()
	from := tr.cursor
	tr.mu.Unlock()
	end := tr.db.Log().End()
	if _, _, _, err := tr.propagateRange(from, end, th); err != nil {
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
		if err := tr.aborted(ctx); err != nil {
			return err
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
		release(latches[:held])
		tr.emit(obs.EventSyncRetry, func(ev *obs.Event) {
			ev.Iteration = attempt + 1
			ev.Tables = []string{latches[held].Name()}
		})
		// A busy latch degrades to one more propagation round so the log
		// does not run away while we wait.
		if _, err := tr.catchUp(nil); err != nil {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	for _, l := range latches {
		l.AcquireExclusive()
	}
	return nil
}

// awaitSourceTxns implements the blocking baseline's wait: it gates the
// sources, so new transactions are denied them while those already running
// (in particular those holding locks) may finish, then returns with the
// source latches held once no transaction holds a lock on a source.
func (tr *Transformation) awaitSourceTxns(ctx context.Context, latches []*lock.Latch) error {
	if err := tr.gate(); err != nil {
		return err
	}
	blockStart := time.Now()
	for {
		if err := tr.aborted(ctx); err != nil {
			return err
		}
		if len(tr.sourceTxns()) == 0 {
			for _, l := range latches {
				l.AcquireExclusive()
			}
			if len(tr.sourceTxns()) == 0 {
				break // drained and latched
			}
			release(latches)
		}
		time.Sleep(200 * time.Microsecond)
	}
	tr.mu.Lock()
	tr.metrics.DrainDuration = time.Since(blockStart)
	tr.mu.Unlock()
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

// forceAbort dooms the transactions, then rolls them back on this goroutine.
func (tr *Transformation) forceAbort(txns []wal.ActiveTxn) error {
	for _, a := range txns {
		tr.db.Doom(a.ID)
	}
	for _, a := range txns {
		if err := tr.db.ForceAbort(a.ID); err != nil {
			return err
		}
	}
	return nil
}

// drain keeps propagating the log as a background process until every old
// transaction has ended and all transferred locks are released (§3.4: "The
// log propagation continues as a background process as long as old
// transactions are alive"). The switch is behind it, so an Abort or a
// cancelled context no longer rolls back: the old transactions still alive
// are doomed and force-aborted, the non-blocking abort path, and the drain
// then completes.
func (tr *Transformation) drain(ctx context.Context, old []wal.ActiveTxn) error {
	th := newThrottler(tr)
	th.drain = true
	stopping := false
	for {
		if _, err := tr.catchUp(th); err != nil {
			return err
		}
		if tr.shadow.LockedKeys() == 0 && !tr.anyOldAlive(old) {
			return nil
		}
		if !stopping && tr.aborted(ctx) != nil {
			stopping = true
			if err := tr.forceAbort(old); err != nil {
				return err
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (tr *Transformation) anyOldAlive(old []wal.ActiveTxn) bool {
	for _, a := range old {
		if tr.db.TxnByID(a.ID) != nil {
			return true
		}
	}
	return false
}
