package core

import (
	"fmt"
	"sync"
	"time"

	"nbschema/internal/obs"
	"nbschema/internal/wal"
)

// Freshness is a point-in-time snapshot of the transformation's freshness
// watermarks: how far behind the source the target tables are, in both log
// positions and wall-clock time. It is the signal an operator (or the
// ROADMAP's future multi-shard tier) reads before deciding that flipping
// switchover is safe.
type Freshness struct {
	// AppliedLSN is the high-water mark: every log record at or below it has
	// been applied to the target tables. It advances with iteration
	// granularity (at propagation-cycle boundaries), not per record.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Backlog is the number of log records past AppliedLSN, the same unit
	// Progress.Remaining reports between iterations.
	Backlog int `json:"backlog"`
	// OldestUnappliedCommit is the low-water mark: the commit wall-clock time
	// of the oldest unapplied timestamped commit record. Zero when every
	// timestamped commit has been applied (the target is fresh) or when the
	// backlog holds only commit records with no timestamp.
	OldestUnappliedCommit time.Time `json:"oldest_unapplied_commit"`
	// Lag is the age of OldestUnappliedCommit: how stale the target is right
	// now in wall-clock terms. 0 when the target is fresh.
	Lag time.Duration `json:"lag_ns"`
	// LastCommitLag is the source-commit→target-apply lag observed at the
	// most recently applied timestamped commit record — the trailing edge of
	// the core.commit_lag histogram.
	LastCommitLag time.Duration `json:"last_commit_lag_ns"`
}

// SwitchoverReady reports whether the snapshot's lag is within maxLag — the
// predicate the sync phase logs (EventFreshness) and the demo surfaces as
// switchover readiness. maxLag <= 0 only accepts a fully fresh target.
func (f Freshness) SwitchoverReady(maxLag time.Duration) bool {
	return f.Lag <= maxLag
}

// freshCache caches the oldest-unapplied timestamped commit so polling
// Freshness does not rescan the backlog from scratch every time. It keeps a
// monotonic scan frontier: records at or below upTo have been examined, so a
// refresh only scans log positions the previous lookup never reached.
type freshCache struct {
	mu   sync.Mutex
	lsn  wal.LSN // cached oldest unapplied timestamped commit (0 = none)
	t    int64   // its commit time, unix nanoseconds
	upTo wal.LSN // scan frontier: every record <= upTo has been examined
}

// oldest returns the LSN and commit time of the oldest unapplied timestamped
// commit in (applied, end], or (0, 0) when there is none. The cached entry is
// reused while it stays unapplied; otherwise the scan resumes past the
// frontier, so repeated polling costs O(new records), not O(backlog).
func (c *freshCache) oldest(log *wal.Log, applied, end wal.LSN) (wal.LSN, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lsn != 0 && c.lsn > applied {
		return c.lsn, c.t
	}
	c.lsn, c.t = 0, 0
	from := max(applied, c.upTo) + 1
	if from > end {
		return 0, 0
	}
	for _, rec := range log.Scan(from, end) {
		if rec.Type == wal.TypeCommit && rec.Time != 0 && rec.LSN > applied {
			c.lsn, c.t = rec.LSN, rec.Time
			// The scan stopped here: positions past rec.LSN were not
			// examined, so the frontier must not jump to end.
			c.upTo = rec.LSN
			return c.lsn, c.t
		}
	}
	c.upTo = end
	return 0, 0
}

// noteApplied publishes the applied-LSN high-water mark: every log record at
// or below upTo has been applied to the target tables. Called at each
// propagation-cycle boundary (propagateLoop, finalPropagation, the sync
// catch-up rounds and the drain), at population start (records below the
// start position are covered by the initial image).
func (tr *Transformation) noteApplied(upTo wal.LSN) {
	if upTo == 0 {
		return
	}
	for {
		cur := tr.appliedLSN.Load()
		if uint64(upTo) <= cur {
			return
		}
		if tr.appliedLSN.CompareAndSwap(cur, uint64(upTo)) {
			break
		}
	}
	tr.mAppliedLSN.Set(int64(upTo))
}

// observeCommitLag records the source-commit→target-apply lag of one
// timestamped commit record into the core.commit_lag histogram. Called from
// handleRecord on both the serial and the parallel apply path; compaction
// keeps commit records, so every committed source transaction in a
// propagated range is measured exactly once.
func (tr *Transformation) observeCommitLag(rec *wal.Record) {
	lag := time.Now().UnixNano() - rec.Time
	if lag < 0 {
		lag = 0 // clock stepped backwards between commit and apply
	}
	tr.lastLagNs.Store(lag)
	tr.mLag.Observe(time.Duration(lag))
}

// Freshness returns the transformation's current freshness watermarks. It may
// be called concurrently with Run from any goroutine; steady-state polling
// costs one bounded log scan thanks to the cache's monotonic frontier. Each
// call also refreshes the core.lag_ms gauge, so anything that polls (the
// history sampler via Progress, the demo, /debug/lag) keeps the watchdog's
// freshness rule fed.
func (tr *Transformation) Freshness() Freshness {
	f := Freshness{
		AppliedLSN:    tr.appliedLSN.Load(),
		LastCommitLag: time.Duration(tr.lastLagNs.Load()),
	}
	if ph := tr.Phase(); ph == PhaseDone || ph == PhaseAborted {
		// Terminal: the targets are published and drained (or dropped);
		// there is no backlog left to age.
		tr.mLagMs.Set(0)
		return f
	}
	applied := wal.LSN(f.AppliedLSN)
	end := tr.db.Log().End()
	if end > applied {
		f.Backlog = int(end - applied)
	}
	if lsn, t := tr.fresh.oldest(tr.db.Log(), applied, end); lsn != 0 {
		f.OldestUnappliedCommit = time.Unix(0, t)
		f.Lag = max(time.Since(f.OldestUnappliedCommit), 0)
	}
	tr.mLagMs.Set(f.Lag.Milliseconds())
	return f
}

// SwitchoverReady reports whether the target's current freshness lag is
// within maxLag.
func (tr *Transformation) SwitchoverReady(maxLag time.Duration) bool {
	return tr.Freshness().SwitchoverReady(maxLag)
}

// emitFreshness logs the freshness watermarks as an EventFreshness trace
// event when the transformation enters synchronization — the moment the
// decision "is it safe to switch over?" is actually taken. When a LagSLO is
// configured and the lag exceeds it, Err names the violation.
func (tr *Transformation) emitFreshness() {
	f := tr.Freshness()
	tr.emit(obs.EventFreshness, func(ev *obs.Event) {
		ev.LSN = f.AppliedLSN
		ev.Duration = f.Lag
		ev.Remaining = f.Backlog
		if slo := tr.cfg.LagSLO; slo > 0 && !f.SwitchoverReady(slo) {
			ev.Err = fmt.Sprintf("lag %v exceeds SLO %v", f.Lag, slo)
		}
	})
}
