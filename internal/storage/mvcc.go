// Multi-version concurrency control: per-record version chains with
// commit-timestamped visibility, the substrate for snapshot-isolation reads
// alongside the engine's strict 2PL writes.
//
// The design keys on one shared cell per writing transaction: every version a
// transaction writes points at its CommitCell, and commit stamps the cell
// once — atomically publishing all of the transaction's versions to
// snapshots. An aborted transaction's cell stays zero forever, so its
// versions (including the compensations its undo applied) are invisible to
// every snapshot; readers walk past them to the newest committed version.
//
// System writes — log propagation into transformation targets, recovery
// replay, bulk loads through the direct storage API — carry a nil cell and
// are visible to every snapshot. Chains are trimmed opportunistically on
// write and swept by Table.GC, both bounded below by the reclamation floor
// gcFloor computes from the commit clock and oldest-active-snapshot
// watermark the engine shares via SetMVCC.
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// ErrWriteConflict is the first-committer-wins write-write conflict: another
// transaction committed a newer version of the record after this
// transaction's begin timestamp. The write is rejected before any mutation;
// the caller should abort and retry.
var ErrWriteConflict = errors.New("storage: snapshot write-write conflict")

// CommitCell is the shared commit timestamp of one writing transaction.
// Every version the transaction writes points at the same cell; stamping it
// at commit publishes all of them to snapshot readers in one atomic store. A
// cell that is never stamped (abort) keeps its versions invisible forever.
type CommitCell struct{ ts atomic.Uint64 }

// Commit stamps the cell with the transaction's commit timestamp.
func (c *CommitCell) Commit(ts uint64) { c.ts.Store(ts) }

// TS returns the stamped commit timestamp (0 = not committed). Nil-safe.
func (c *CommitCell) TS() uint64 {
	if c == nil {
		return 0
	}
	return c.ts.Load()
}

// WriteCtx identifies the writing transaction to the MVCC bookkeeping: the
// commit cell its versions share and its begin timestamp for the
// first-committer-wins check. A nil *WriteCtx marks a system write (visible
// to every snapshot, exempt from conflict checks) — exactly what the plain
// Insert/Update/Delete entry points pass.
type WriteCtx struct {
	Cell    *CommitCell
	BeginTS uint64
}

func (w *WriteCtx) cellOf() *CommitCell {
	if w == nil {
		return nil
	}
	return w.Cell
}

// version is one entry in a record's version chain. The head of the chain
// describes the record's current contents (row aliases Record.Row); prev
// links to older versions. A nil row marks a delete tombstone.
type version struct {
	row  value.Tuple
	lsn  wal.LSN
	cell *CommitCell // nil: system write, visible to every snapshot
	prev *version
	// depth approximates the chain length at push time (not decremented by
	// trims); it only feeds the chain-length histogram.
	depth uint32
}

// committed returns the version's commit timestamp and whether it is
// committed at all. System writes (nil cell) report (0, true): visible to
// every snapshot, conflicting with none.
func (v *version) committed() (uint64, bool) {
	if v.cell == nil {
		return 0, true
	}
	ts := v.cell.TS()
	return ts, ts != 0
}

// visibleAt reports whether the version is visible to a snapshot taken at ts.
func (v *version) visibleAt(ts uint64) bool {
	if v.cell == nil {
		return true
	}
	c := v.cell.TS()
	return c != 0 && c <= ts
}

// visibleVersion returns the newest version in the chain visible at ts, or
// nil. A tombstone result means "deleted as of ts".
func visibleVersion(head *version, ts uint64) *version {
	for v := head; v != nil; v = v.prev {
		if v.visibleAt(ts) {
			return v
		}
	}
	return nil
}

// fcwCheck enforces first-committer-wins: writing a record whose newest
// committed version postdates the writer's begin timestamp is a write-write
// conflict. The writer's own versions pass (re-writing a key it already
// wrote), as do chains headed by system writes and chains whose newest
// committed version predates the begin.
func fcwCheck(head *version, w *WriteCtx) error {
	if w == nil || w.Cell == nil {
		return nil
	}
	for v := head; v != nil; v = v.prev {
		if v.cell == w.Cell {
			return nil
		}
		ts, ok := v.committed()
		if !ok {
			continue // aborted leftover: invisible, conflicts with nothing
		}
		if v.cell != nil && ts > w.BeginTS {
			return fmt.Errorf("%w: begin ts %d, record committed at ts %d",
				ErrWriteConflict, w.BeginTS, ts)
		}
		return nil
	}
	return nil
}

// SetMVCC enables version-chain maintenance on this table, sharing the
// engine-owned commit clock (the last assigned commit timestamp) and
// oldest-active-snapshot watermark that together bound chain trimming (see
// gcFloor). Call before the table is shared; tables without it pay nothing
// for MVCC.
func (t *Table) SetMVCC(clock, oldest *atomic.Uint64) {
	t.mvcc = true
	t.clock = clock
	t.oldest = oldest
}

// gcFloor returns the trim watermark: the oldest active snapshot bounded
// above by the commit clock — and the clock is read FIRST. Both matter for
// correctness against a snapshot registering concurrently:
//
//   - The clock bound means a trim never keys on a version committed after
//     the floor was computed, so a snapshot that begins mid-sweep at the
//     current clock value can only need versions the trim retained.
//   - The read order closes the remaining window for snapshots that began
//     just before such a commit: a snapshot whose ts predates a commit at C
//     read the clock before C was published, and it pre-published its GC
//     floor (BeginSnapshot, under snapMu) before that clock read. A floor
//     computation whose clock read observed C therefore happens after the
//     snapshot's floor store, and its watermark read must see it.
//
// Reading the pair in the opposite order re-opens the race: watermark read
// (no snapshot yet), snapshot registers at T, commit at T+1 advances the
// clock, clock read returns T+1 — and the floor T+1 would let a trim cut the
// version the snapshot at T needs.
func (t *Table) gcFloor() uint64 {
	c := t.clock.Load()
	if w := t.oldest.Load(); w < c {
		return w
	}
	return c
}

// MVCCEnabled reports whether the table maintains version chains.
func (t *Table) MVCCEnabled() bool { return t.mvcc }

// pushVersion links a new version onto prev and records the bookkeeping
// (retained-version gauge, chain-length histogram). Call with the partition
// latch held exclusively.
func (t *Table) pushVersion(row value.Tuple, lsn wal.LSN, w *WriteCtx, prev *version) *version {
	v := &version{row: row, lsn: lsn, cell: w.cellOf(), prev: prev}
	if prev != nil {
		v.depth = prev.depth + 1
	}
	t.nVersions.Add(1)
	t.mVersions.Add(1)
	// Chain length n is recorded as n microseconds so the fixed latency
	// buckets give ~unit resolution for short chains.
	t.mChainLen.Observe(time.Duration(v.depth+1) * time.Microsecond)
	return v
}

// trimChain cuts the chain below the newest version every snapshot at or
// after oldest can see, returning the number of versions freed. Anything
// below the first committed version with ts <= oldest is unreachable: every
// active snapshot (ts >= oldest) sees that version or a newer one.
func trimChain(head *version, oldest uint64) int64 {
	for v := head; v != nil; v = v.prev {
		ts, ok := v.committed()
		if !ok || ts > oldest {
			continue
		}
		if v.prev == nil {
			return 0
		}
		var n int64
		for d := v.prev; d != nil; d = d.prev {
			n++
		}
		v.prev = nil
		return n
	}
	return 0
}

// trimLocked is the on-write trim: cut the chain against the current
// reclamation floor and account the freed versions. Call with the partition
// latch held.
func (t *Table) trimLocked(head *version) {
	t.reclaim(trimChain(head, t.gcFloor()))
}

// reclaim accounts n freed versions. After DetachObs (table dropped) it
// leaves the version accounting alone: the drop already settled the table's
// contribution to the shared gauge, and a GC sweep still holding the table
// must not subtract it again.
func (t *Table) reclaim(n int64) {
	if n == 0 {
		return
	}
	t.detachMu.Lock()
	if !t.detached {
		t.nVersions.Add(-n)
		t.mVersions.Add(-n)
	}
	t.detachMu.Unlock()
	t.mGCReclaim.Add(n)
}

// chainLen returns the number of versions in a chain.
func chainLen(head *version) int64 {
	var n int64
	for v := head; v != nil; v = v.prev {
		n++
	}
	return n
}

// deadRemovable reports whether a dead-map chain can be dropped entirely:
// its newest committed version is a tombstone every snapshot already sees
// (ts <= oldest), or no committed version exists at all (aborted leftovers,
// never visible to any snapshot).
func deadRemovable(head *version, oldest uint64) bool {
	for v := head; v != nil; v = v.prev {
		ts, ok := v.committed()
		if !ok {
			continue
		}
		return v.row == nil && ts <= oldest
	}
	return true
}

// GC sweeps every version chain against the current reclamation floor
// (gcFloor): live chains are trimmed and dead-map entries whose key is
// invisible to every current and future snapshot are removed. It returns the
// number of versions reclaimed. Safe to run concurrently with reads, writes
// and BeginSnapshot: it takes each partition latch in turn and re-reads the
// floor under each latch rather than threading one stale value through the
// whole sweep, so a snapshot opened mid-sweep lowers the floor for every
// partition not yet visited (gcFloor's clock bound covers the ones already
// in flight).
func (t *Table) GC() int64 {
	if !t.mvcc {
		return 0
	}
	var freed int64
	for _, p := range t.parts {
		p.mu.Lock()
		floor := t.gcFloor()
		for _, rec := range p.rows {
			if rec.vc != nil {
				freed += trimChain(rec.vc, floor)
			}
		}
		for k, head := range p.dead {
			if deadRemovable(head, floor) {
				freed += chainLen(head)
				delete(p.dead, k)
				continue
			}
			freed += trimChain(head, floor)
		}
		p.mu.Unlock()
	}
	t.reclaim(freed)
	return freed
}

// GetAtEnc returns the newest version visible to a snapshot at ts of the
// record under the caller-encoded key enc (key is only used for the not-found
// error message), or ErrNotFound when the key did not exist (or was deleted)
// as of ts. It takes no transactional locks — only the partition latch — and
// allocates nothing. The returned tuple is shared and read-only: committed
// versions are never mutated, only linked.
func (t *Table) GetAtEnc(key value.Tuple, enc []byte, ts uint64) (value.Tuple, wal.LSN, error) {
	t.mSnapGets.Add(1)
	p := t.parts[t.partIndexB(enc)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	var head *version
	if rec, ok := p.rows[string(enc)]; ok {
		if rec.vc == nil {
			// MVCC off: degenerate to the current image (fuzzy read).
			return rec.Row, rec.LSN, nil
		}
		head = rec.vc
	} else {
		head = p.dead[string(enc)]
	}
	if v := visibleVersion(head, ts); v != nil && v.row != nil {
		return v.row, v.lsn, nil
	}
	return nil, 0, fmt.Errorf("%w: %s in table %s", ErrNotFound, key, t.def.Name)
}

// SnapshotScanPartition scans one heap partition as of snapshot ts: every
// key's newest version committed at or before ts, a transactionally
// consistent view. Like the fuzzy scan it works in chunks, collecting shared
// read-only rows under the partition latch and delivering them to fn with no
// latch held; unlike the fuzzy scan the result mixes no mid-scan updates. fn
// returning false aborts the remaining chunks of the partition; fn may
// retain the Record values but not the chunk slice itself (it is pooled).
// Different partitions can be scanned concurrently. chunk <= 0 selects a
// default.
//
// System writes (nil-cell versions, visible to every snapshot) have their
// visibility bounded at listing time: one landing in this partition after
// the scan listed its keys is not delivered, even though a point GetAt would
// already return it. Transactional writes need no such caveat — a key
// absent from the listing can only carry versions committed after ts.
func (t *Table) SnapshotScanPartition(pi int, ts uint64, chunk int, fn func(rows []Record) bool) {
	if chunk <= 0 {
		chunk = 256
	}
	p := t.parts[pi]
	// The key list includes dead-map keys: a record deleted after ts is
	// still visible to the snapshot through its tombstoned chain. Keys
	// inserted after the listing are committed after ts and thus invisible
	// (system writes excepted — see above).
	kp := scanKeysPool.Get().(*[]string)
	keys := *kp
	p.mu.RLock()
	for k := range p.rows {
		keys = append(keys, k)
	}
	for k := range p.dead {
		keys = append(keys, k)
	}
	p.mu.RUnlock()

	rp := scanRecsPool.Get().(*[]Record)
	buf := *rp
	for start := 0; start < len(keys); start += chunk {
		end := min(start+chunk, len(keys))
		t.mSnapChunks.Add(1)
		buf = buf[:0]
		p.mu.RLock()
		for _, k := range keys[start:end] {
			var head *version
			if rec, ok := p.rows[k]; ok {
				if rec.vc == nil {
					buf = append(buf, Record{Row: rec.Row, LSN: rec.LSN, Key: k})
					continue
				}
				head = rec.vc
			} else {
				head = p.dead[k]
			}
			if v := visibleVersion(head, ts); v != nil && v.row != nil {
				buf = append(buf, Record{Row: v.row, LSN: v.lsn, Key: k})
			}
		}
		p.mu.RUnlock()
		if !fn(buf) {
			break
		}
	}
	putScanRecs(rp, buf)
	putScanKeys(kp, keys)
}

// VersionStats summarizes a table's MVCC bookkeeping for the debug surface.
type VersionStats struct {
	Table    string `json:"table"`
	MVCC     bool   `json:"mvcc"`
	Versions int64  `json:"versions"`
	LiveKeys int    `json:"live_keys"`
	DeadKeys int    `json:"dead_keys"`
	MaxChain int64  `json:"max_chain"`
}

// VersionStats walks every chain and reports the table's MVCC state.
func (t *Table) VersionStats() VersionStats {
	s := VersionStats{Table: t.def.Name, MVCC: t.mvcc}
	for _, p := range t.parts {
		p.mu.RLock()
		s.LiveKeys += len(p.rows)
		s.DeadKeys += len(p.dead)
		for _, rec := range p.rows {
			if n := chainLen(rec.vc); n > 0 {
				s.Versions += n
				if n > s.MaxChain {
					s.MaxChain = n
				}
			}
		}
		for _, head := range p.dead {
			n := chainLen(head)
			s.Versions += n
			if n > s.MaxChain {
				s.MaxChain = n
			}
		}
		p.mu.RUnlock()
	}
	return s
}
