package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/fault"
	"nbschema/internal/obs"
	"nbschema/internal/storage"
	"nbschema/internal/wal"
)

// DefaultPropagateWorkers returns the worker count used for parallel
// population and propagation when none is configured: one less than
// GOMAXPROCS, so a core stays with the foreground — the bulk population is
// CPU-bound, and with a worker on every core of the 2-core reference host it
// took half of the clients' throughput to finish a third sooner — at least
// 1, capped at 16 (propagation batches rarely contain more independent key
// groups than that).
func DefaultPropagateWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0)-1, 16))
}

// conflictKeyer is implemented by operators whose propagation rules can
// declare, from the log record alone, a set of abstract conflict keys
// covering everything the rule reads or writes on the target side. Two
// records with disjoint key sets commute, so the propagator may apply them
// concurrently; records sharing a key are applied in LSN order by one
// worker. ok=false marks a barrier record: the rule's touch set cannot be
// determined statically, so everything before it is flushed, the record is
// applied alone, and batching resumes after it. Operators that cannot
// provide sound keys (full outer join: group lookups make even read sets
// data-dependent) simply do not implement the interface and propagate
// serially.
type conflictKeyer interface {
	conflictKeys(rec *wal.Record) (keys []string, ok bool)
}

// propagateParallel redoes recs with cfg.PropagateWorkers goroutines,
// batching records until a barrier or until the batch holds
// workers×BatchSize records, then partitioning each batch into
// transitively-connected conflict groups and applying the groups
// concurrently. All coordinator duties of the serial path — the
// propagate.batch fault point, throttling, stall deadlines, cancellation,
// and consistency-checker maintenance — fire from this goroutine only; a
// panic inside a worker (an armed storage fault point, a bug) comes back to
// it through runWorkers.
func (tr *Transformation) propagateParallel(recs []*wal.Record, ck conflictKeyer, th *throttler) (int, error) {
	workers := tr.cfg.PropagateWorkers
	maxBatch := workers * tr.cfg.BatchSize
	applied := 0
	var batch []*wal.Record
	var batchKeys [][]string

	flush := func() error {
		n := len(batch)
		if n == 0 {
			return nil
		}
		if err := tr.faultHit("propagate.batch"); err != nil {
			return err
		}
		err := tr.runGroups(groupByConflicts(batch, batchKeys), workers)
		batch, batchKeys = batch[:0], batchKeys[:0]
		if err != nil {
			return err
		}
		applied += n
		tr.applied.Add(int64(n))
		th.tick(n)
		if th.cancelled() {
			return ErrAborted
		}
		if err := th.checkDeadline(); err != nil {
			return err
		}
		if tr.cfg.CheckConsistency {
			if err := tr.op.MaintenanceTick(); err != nil {
				return err
			}
		}
		return nil
	}

	for _, rec := range recs {
		// Records the serial path would no-op on (begins, fuzzy marks,
		// operations on unrelated tables) are counted as processed but never
		// scheduled.
		skip := false
		switch rec.Type {
		case wal.TypeFuzzyMark, wal.TypeBegin:
			skip = true
		case wal.TypeInsert, wal.TypeUpdate, wal.TypeDelete, wal.TypeCLR:
			skip = !tr.isSource(rec.Table)
		}
		if skip {
			applied++
			tr.applied.Add(1)
			th.tick(1)
			continue
		}
		keys, ok := ck.conflictKeys(rec)
		if !ok {
			// Barrier: drain the batch, then apply the record alone.
			if err := flush(); err != nil {
				return applied, err
			}
			if err := tr.handleRecord(rec); err != nil {
				return applied, err
			}
			applied++
			tr.applied.Add(1)
			th.tick(1)
			if th.cancelled() {
				return applied, ErrAborted
			}
			continue
		}
		batch = append(batch, rec)
		batchKeys = append(batchKeys, keys)
		if len(batch) >= maxBatch {
			if err := flush(); err != nil {
				return applied, err
			}
		}
	}
	if err := flush(); err != nil {
		return applied, err
	}
	tr.mu.Lock()
	tr.metrics.RecordsApplied += int64(applied)
	tr.mu.Unlock()
	tr.mPropagated.Add(int64(applied))
	return applied, nil
}

// groupByConflicts partitions one batch into its transitively-connected
// conflict groups: union-find over the records' key sets, so any two records
// sharing a key (directly or through intermediaries) land in one group.
// Each group preserves LSN (arrival) order; groups are emitted in order of
// their earliest record.
func groupByConflicts(recs []*wal.Record, keys [][]string) [][]*wal.Record {
	parent := make([]int, len(recs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := make(map[string]int)
	for i, ks := range keys {
		for _, k := range ks {
			if j, seen := owner[k]; seen {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			} else {
				owner[k] = i
			}
		}
	}
	groups := make(map[int][]*wal.Record, len(recs))
	var order []int
	for i, rec := range recs {
		r := find(i)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], rec)
	}
	out := make([][]*wal.Record, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// runWorkers runs body(0..n-1) on n goroutines and waits for all of them;
// with n <= 1 it runs body(0) on the calling goroutine. The first error is
// returned, and stop is raised as soon as any worker fails so the others can
// leave their loops early. A panic in a worker never escapes its goroutine —
// that would kill the host process from a goroutine nobody can recover on.
// It is handed to the caller instead: an injected crash (fault.Crash) is
// re-raised here, on the goroutine that called Run, where the process
// boundary of a crash harness catches it like any other crash point; any
// other panic becomes the returned error and so aborts the transformation.
func runWorkers(n int, stop *atomic.Bool, body func(w int) error) error {
	if n <= 1 {
		return body(0)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		crash any
	)
	fail := func(err error) {
		stop.Store(true)
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if _, injected := fault.AsCrash(r); injected {
					stop.Store(true)
					mu.Lock()
					crash = r
					mu.Unlock()
				} else if r != nil {
					fail(fmt.Errorf("core: worker panic: %v\n%s", r, debug.Stack()))
				}
			}()
			if err := body(w); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	if crash != nil {
		panic(crash)
	}
	return first
}

// runGroups applies independent conflict groups on a bounded worker pool,
// each group's records in LSN order; a single group is applied inline. The
// first error stops all workers from picking up further groups and is
// returned.
func (tr *Transformation) runGroups(groups [][]*wal.Record, workers int) error {
	timed := tr.tl.Enabled()
	var cursor atomic.Int64
	var stop atomic.Bool
	return runWorkers(min(workers, len(groups)), &stop, func(w int) error {
		for !stop.Load() {
			gi := int(cursor.Add(1)) - 1
			if gi >= len(groups) {
				break
			}
			start := time.Time{}
			if timed {
				start = time.Now()
			}
			for _, rec := range groups[gi] {
				if err := tr.handleRecord(rec); err != nil {
					return err
				}
			}
			if timed {
				// One span per conflict group on the applying worker's
				// track; N carries the group's record count.
				tr.tl.Span("group", obs.CatGroup, obs.TidWorkerBase+int64(w),
					start, time.Since(start), int64(len(groups[gi])))
			}
		}
		return nil
	})
}

// forEachPartition scans every heap partition of tbl on a bounded pool of
// cfg.PropagateWorkers goroutines — the parallel initial population driver.
// work runs once per worker and draws partition indexes from next until it
// reports false, so whatever work declares is that worker's state across all
// the partitions it scans: a combiner map, a scratch buffer. With one worker
// (or one partition) the partitions are processed inline, in order: the
// exact serial population path.
func (tr *Transformation) forEachPartition(tbl *storage.Table, work func(next func() (pi int, ok bool)) error) error {
	n := tbl.Partitions()
	timed := tr.tl.Enabled()
	var cursor atomic.Int64
	var stop atomic.Bool
	return runWorkers(min(tr.cfg.PropagateWorkers, n), &stop, func(w int) error {
		cur, start := -1, time.Time{}
		return work(func() (int, bool) {
			if timed && cur >= 0 {
				// One span per scanned heap partition on the scanning
				// worker's track; N carries the partition index.
				tr.tl.Span("populate partition "+tbl.Def().Name, obs.CatPopulate,
					obs.TidWorkerBase+int64(w), start, time.Since(start), int64(cur))
			}
			cur = int(cursor.Add(1)) - 1
			if cur >= n || stop.Load() {
				cur = -1
				return 0, false
			}
			if timed {
				start = time.Now()
			}
			return cur, true
		})
	})
}
