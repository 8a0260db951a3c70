package core

import (
	"context"
	"time"

	"nbschema/internal/lock"
	"nbschema/internal/obs"
	"nbschema/internal/wal"
)

// throttler implements the transformation's priority as a duty cycle: after
// each slice of work taking w wall-clock time at priority p, it sleeps
// w·(1−p)/p, so the transformation consumes at most fraction p of one core.
// Figure 4(d) sweeps exactly this knob.
type throttler struct {
	tr       *Transformation
	sliceAt  time.Time
	workDone time.Duration
	pending  int
	deadline time.Time // in-iteration stall deadline (zero = none)
	drain    bool      // past the switch: an Abort no longer stops propagation
}

func newThrottler(tr *Transformation) *throttler {
	return &throttler{tr: tr, sliceAt: time.Now()}
}

// cancelled reports an Abort the propagation must stop for. The drain's
// never does: past the switch an abort is finished, not rolled back.
func (th *throttler) cancelled() bool { return !th.drain && th.tr.cancel.Load() }

// armDeadline sets the in-iteration stall deadline from the config.
func (th *throttler) armDeadline() {
	if th.tr.cfg.StallTimeout > 0 {
		th.deadline = time.Now().Add(th.tr.cfg.StallTimeout)
	}
}

// checkDeadline fires the stall policy when the iteration overruns: abort
// returns ErrStalled; boost doubles the priority and re-arms.
func (th *throttler) checkDeadline() error {
	if th.deadline.IsZero() || time.Now().Before(th.deadline) {
		return nil
	}
	if th.tr.cfg.StallPolicy == StallAbort {
		th.tr.emit(obs.EventStall, func(ev *obs.Event) { ev.Err = ErrStalled.Error() })
		return ErrStalled
	}
	th.tr.SetPriority(min(1, th.tr.Priority()*2))
	th.tr.emit(obs.EventStall, nil)
	th.armDeadline()
	return nil
}

// tick records n units of work and sleeps when a batch is complete.
func (th *throttler) tick(n int) {
	th.pending += n
	if th.pending < th.tr.cfg.BatchSize {
		return
	}
	th.pending = 0
	now := time.Now()
	work := now.Sub(th.sliceAt)
	p := th.tr.Priority()
	if p < 1 && work > 0 {
		sleep := time.Duration(float64(work) * (1 - p) / p)
		// Cap single sleeps so priority changes and cancellation are
		// reacted to promptly even at very low priorities.
		const maxSleep = 20 * time.Millisecond
		for sleep > 0 && !th.tr.cancel.Load() {
			d := min(sleep, maxSleep)
			time.Sleep(d)
			sleep -= d
		}
	}
	th.sliceAt = time.Now()
	th.workDone += work
}

// propagateLoop runs log-propagation iterations until the analyzer decides
// to synchronize (§3.3). Each iteration ends with a fuzzy mark; the analysis
// then either starts another iteration or hands over to synchronization.
func (tr *Transformation) propagateLoop(ctx context.Context) error {
	th := newThrottler(tr)
	stalls := 0
	ccBlocked := 0
	prevRemaining := -1

	for iter := 1; ; iter++ {
		iterStart := time.Now()
		th.armDeadline()
		tr.mu.Lock()
		from := tr.cursor
		tr.mu.Unlock()
		end := tr.db.Log().End()

		// Publish the pending range before working it: the backlog gauge must
		// show outstanding work while a range is (possibly slowly) in flight,
		// not only between iterations — the watchdog's stall check pairs it
		// with a flat core.propagated to detect a propagation that stopped
		// moving.
		if end >= from {
			tr.mBacklog.Set(int64(end - from + 1))
		} else {
			tr.mBacklog.Set(0)
		}

		applied, scanned, busy, err := tr.propagateRange(from, end, th)
		if err != nil {
			return err
		}
		if err := tr.aborted(ctx); err != nil {
			return err
		}

		// Idle cycle: nothing was propagated and nothing new arrived. Ask
		// the analyzer (it may decide the log is drained enough to
		// synchronize) and otherwise wait for log activity instead of
		// spinning on fuzzy marks. No iteration event is emitted — idle
		// cycles are paced in the sub-millisecond range and would flood the
		// trace — but the analysis is still published for Progress.
		//
		// A cycle whose range held nothing but the loop's own fuzzy marks
		// (no-ops, but counted in applied) is idle too: without compaction it
		// would otherwise take the busy branch and answer the previous
		// cycle's mark with a fresh one, growing the log indefinitely while
		// synchronization stays gated.
		logQuiet := tr.db.Log().End() == end
		if logQuiet && (applied == 0 || !busy) {
			a := Analysis{Remaining: 0, Applied: 0, Scanned: scanned, Duration: time.Since(iterStart), Iteration: iter}
			tr.mu.Lock()
			// With compaction, a non-empty range can coalesce to nothing
			// (only begins, marks and non-source records); advance past it
			// so the idle cycle does not rescan the same tail, and count it
			// as an iteration — records were consumed, unlike the truly
			// idle spins below.
			if scanned > 0 {
				tr.cursor = end + 1
				tr.metrics.Iterations = iter
			}
			tr.lastA = a
			tr.mu.Unlock()
			if scanned > 0 {
				tr.noteApplied(end)
			}
			// Count an iteration (and emit its event) only when the range
			// held anything besides the loop's own fuzzy marks, so an idle
			// loop does not flood the trace while synchronization is gated.
			if busy {
				tr.mIterations.Add(1)
				tr.emit(obs.EventIteration, func(ev *obs.Event) {
					ev.Iteration = iter
					ev.Scanned = scanned
					ev.Duration = a.Duration
					ev.Rules = tr.ruleDelta()
				})
			}
			if tr.cfg.Analyzer(a) && tr.op.ReadyToSync() {
				return nil
			}
			if tr.cfg.MaxIterations > 0 && iter >= tr.cfg.MaxIterations {
				if !tr.op.ReadyToSync() {
					return ErrInconsistentData
				}
				return nil
			}
			if err := tr.op.MaintenanceTick(); err != nil {
				return err
			}
			time.Sleep(500 * time.Microsecond)
			continue
		}

		// Cycle boundary: a fuzzy mark ends this propagation cycle and
		// begins the next (§3.3).
		if err := tr.faultHit("fuzzymark"); err != nil {
			return err
		}
		mark := tr.db.Log().Append(&wal.Record{Type: wal.TypeFuzzyMark, Active: tr.db.ActiveTxns()})
		tr.emit(obs.EventFuzzyMark, func(ev *obs.Event) { ev.LSN = uint64(mark) })

		remaining := int(mark - end - 1) // records generated during the iteration
		if remaining < 0 {
			remaining = 0
		}
		tr.mBacklog.Set(int64(remaining))
		a := Analysis{
			Remaining: remaining,
			Applied:   applied,
			Scanned:   scanned,
			Duration:  time.Since(iterStart),
			Iteration: iter,
		}
		tr.mu.Lock()
		tr.cursor = end + 1
		tr.metrics.Iterations = iter
		tr.lastA = a
		tr.mu.Unlock()
		tr.noteApplied(end)
		tr.mIterations.Add(1)
		tr.emit(obs.EventIteration, func(ev *obs.Event) {
			ev.Iteration = iter
			ev.Applied = applied
			ev.Scanned = scanned
			ev.Remaining = remaining
			ev.Duration = a.Duration
			ev.Rules = tr.ruleDelta()
		})
		if tr.cfg.Analyzer(a) {
			if tr.op.ReadyToSync() {
				return nil
			}
			// Synchronization is gated by the consistency checker: give it
			// extra rounds, and give up if the data is genuinely
			// inconsistent and nobody repairs it (§5.3).
			ccBlocked++
			if err := tr.op.MaintenanceTick(); err != nil {
				return err
			}
			if ccBlocked > max(16, 4*tr.cfg.StallIterations) {
				return ErrInconsistentData
			}
			// The checker is waiting for user repairs; don't spin.
			time.Sleep(2 * time.Millisecond)
		} else {
			ccBlocked = 0
		}
		if tr.cfg.MaxIterations > 0 && iter >= tr.cfg.MaxIterations {
			if !tr.op.ReadyToSync() {
				return ErrInconsistentData
			}
			return nil
		}

		// Pace near-empty cycles: without this, a trickle of user traffic
		// makes the loop spin at full speed, appending one fuzzy mark per
		// handful of records and monopolizing the log latch and the CPU.
		if applied < tr.cfg.BatchSize {
			time.Sleep(300 * time.Microsecond)
		}

		// Stall detection: the propagator is falling behind when the
		// leftover work stops shrinking iteration over iteration.
		if prevRemaining >= 0 && remaining >= prevRemaining {
			stalls++
		} else {
			stalls = 0
		}
		prevRemaining = remaining
		if stalls >= tr.cfg.StallIterations {
			switch tr.cfg.StallPolicy {
			case StallAbort:
				tr.emit(obs.EventStall, func(ev *obs.Event) {
					ev.Iteration = iter
					ev.Remaining = remaining
					ev.Err = ErrStalled.Error()
				})
				return ErrStalled
			case StallBoost:
				tr.SetPriority(min(1, tr.Priority()*2))
				tr.emit(obs.EventStall, func(ev *obs.Event) {
					ev.Iteration = iter
					ev.Remaining = remaining
				})
				stalls = 0
			}
		}
	}
}

// propagateRange redoes log records [from, to] onto the target tables and
// returns how many records it applied alongside how many raw records it
// scanned, and whether any of those was not a fuzzy mark (busy). When the
// operator supports net-effect keys and compaction is enabled, the interval
// is first coalesced to its net effect (compact.go) — applied then counts
// the compacted stream. When the operator can declare conflict keys for its
// rules, more than one worker is configured, and rule application is not
// being serialized against post-switchover user transactions, the
// (compacted) range is applied in parallel independent-key batches;
// otherwise strictly in LSN order by this goroutine. All paths preserve the per-key LSN order Theorem 1's
// idempotence argument relies on.
func (tr *Transformation) propagateRange(from, to wal.LSN, th *throttler) (applied, scanned int, busy bool, err error) {
	if from == 0 || from > to {
		return 0, 0, false, nil
	}
	recs := tr.db.Log().Scan(from, to)
	scanned = len(recs)
	for _, rec := range recs {
		if rec.Type != wal.TypeFuzzyMark {
			busy = true
			break
		}
	}
	if nk, ok := tr.op.(netKeyer); ok && tr.cfg.Compaction != CompactionOff {
		if tr.comp == nil {
			tr.comp = newCompactor()
		}
		var st compactStats
		recs, st = tr.comp.compact(recs, tr.isSource, nk)
		tr.noteCompaction(st)
	}
	// A range that consumed raw records fires the batch fault point at
	// least once even when compaction coalesced it to nothing, preserving
	// the pre-compaction guarantee crash tests rely on.
	if len(recs) == 0 && scanned > 0 {
		if err := tr.faultHit("propagate.batch"); err != nil {
			return 0, scanned, busy, err
		}
	}
	if ck, ok := tr.op.(conflictKeyer); ok &&
		tr.cfg.PropagateWorkers > 1 && th != nil && !tr.latchTargets.Load() {
		applied, err = tr.propagateParallel(recs, ck, th)
		tr.mu.Lock()
		tr.metrics.RecordsScanned += int64(scanned)
		tr.mu.Unlock()
		return applied, scanned, busy, err
	}
	for _, rec := range recs {
		// A "batch" is each run of up to BatchSize records; the fault point
		// fires at every batch start, including the range's first record.
		if applied%tr.cfg.BatchSize == 0 {
			if err := tr.faultHit("propagate.batch"); err != nil {
				return applied, scanned, busy, err
			}
		}
		if err := tr.handleRecord(rec); err != nil {
			return applied, scanned, busy, err
		}
		applied++
		tr.applied.Add(1)
		if th != nil {
			th.tick(1)
			if th.cancelled() {
				return applied, scanned, busy, ErrAborted
			}
			if err := th.checkDeadline(); err != nil {
				return applied, scanned, busy, err
			}
		}
		// Give the operator its background slot (consistency checker).
		if tr.cfg.CheckConsistency && applied%tr.cfg.BatchSize == 0 {
			if err := tr.op.MaintenanceTick(); err != nil {
				return applied, scanned, busy, err
			}
		}
	}
	tr.mu.Lock()
	tr.metrics.RecordsApplied += int64(applied)
	tr.metrics.RecordsScanned += int64(scanned)
	tr.mu.Unlock()
	tr.mPropagated.Add(int64(applied))
	return applied, scanned, busy, nil
}

// noteCompaction folds one compaction pass into the metrics and registry
// counters, before the batch is applied, so Progress polled mid-batch
// already reflects it.
func (tr *Transformation) noteCompaction(st compactStats) {
	tr.mu.Lock()
	tr.metrics.CompactIn += int64(st.In)
	tr.metrics.CompactOut += int64(st.Out)
	tr.metrics.CompactFences += int64(st.Fences)
	tr.metrics.CompactFencedKeys += int64(st.FencedKeys)
	tr.mu.Unlock()
	tr.mCompactIn.Add(int64(st.In))
	tr.mCompactOut.Add(int64(st.Out))
	tr.mCompactFenc.Add(int64(st.Fences))
}

// handleRecord dispatches one log record during propagation.
func (tr *Transformation) handleRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeCommit, wal.TypeAbort:
		// A timestamped commit measures the source-commit→target-apply lag
		// right here, where both apply paths (serial and parallel) converge
		// (freshness.go).
		if rec.Type == wal.TypeCommit && rec.Time != 0 {
			tr.observeCommitLag(rec)
		}
		// Locks transferred to the new tables are released when the
		// propagator processes the owner's end-of-transaction record (§4.3).
		tr.shadow.ReleaseTxn(rec.Txn)
		return nil
	case wal.TypeFuzzyMark, wal.TypeBegin:
		return nil
	case wal.TypeCCBegin, wal.TypeCCOK:
		// Consistency-checker bookkeeping records are interpreted by the
		// operator (split transformations, §5.3).
		return tr.apply(rec)
	case wal.TypeInsert, wal.TypeUpdate, wal.TypeDelete, wal.TypeCLR:
		if !tr.isSource(rec.Table) {
			return nil
		}
		return tr.apply(rec)
	default:
		return nil
	}
}

// apply redoes one record, serializing against user operations on the new
// tables once those are public (post-switchover).
func (tr *Transformation) apply(rec *wal.Record) error {
	if tr.latchTargets.Load() {
		return tr.withTargetLatches(func() error { return tr.op.Apply(rec) })
	}
	return tr.op.Apply(rec)
}

func (tr *Transformation) isSource(table string) bool {
	for _, s := range tr.op.Sources() {
		if s == table {
			return true
		}
	}
	return false
}

// placeShadow records a transferred exclusive lock on a target record on
// behalf of the transaction that logged the operation being redone.
func (tr *Transformation) placeShadow(rec *wal.Record, targetTable, keyEnc string) {
	if rec == nil || rec.Txn == 0 {
		return
	}
	tr.shadow.Place(rec.Txn, nsKey(targetTable, keyEnc), tr.originOf(rec.Table), lock.Exclusive)
}
