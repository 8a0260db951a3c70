package core

import (
	"nbschema/internal/wal"
)

// Net-effect log compaction (ISSUE 5). The propagation rules (Rules 1–11)
// are state-based and idempotent: each applies or no-ops by comparing the
// record's LSN against the LSN stored with the target row. Within one
// propagation interval, therefore, only the net effect per source row
// matters — a run of updates to the same key collapses to one update
// carrying the per-column last value and the last LSN, and an insert that is
// deleted again before the interval ends collapses to its trailing delete
// (the delete is kept, not dropped: the initial fuzzy population may have
// read the row while it was live, so a target row can exist and must still
// be removed). Replaying the compacted stream yields the same target images
// as replaying the raw tail, at a fraction of the rule executions.
//
// The operator declares which records are compactable through the netKeyer
// interface (mirroring PR 4's conflictKeyer classification): records it
// cannot key — consistency-checker records, split-attribute or primary-key
// updates, payload-less CLRs — act as *global fences*. A fence passes
// through uncompacted and cuts every open run: no coalescing happens across
// it, so whatever state the fence record interrogates or rewrites sees
// exactly the record sequence the raw log would have shown it.
//
// Soundness of the remaining reorderings rests on strict 2PL: two writes to
// the same key by different transactions are ordered commit-before-write in
// the log, so when a coalesced record is emitted at the position of its
// *last* constituent, every earlier constituent's transaction has already
// ended — its shadow lock (which the coalesced record no longer places) was
// already released, and its end-of-transaction record, which passes through
// uncompacted at its original position, still precedes any later writer's
// records. Begin records, fuzzy marks, and operations on non-source tables
// are no-ops for propagation and are dropped outright.

// netKeyer is implemented by operators whose rule applications can be
// coalesced to a per-key net effect before replay. netKey returns the
// grouping key for an operation record — all records of one source row must
// map to the same key — or ok=false when the record must fence: pass
// through uncompacted and cut every open run. Transaction-control records
// (begin/commit/abort) and fuzzy marks are classified by the compactor
// itself and never reach netKey.
type netKeyer interface {
	netKey(rec *wal.Record) (key string, ok bool)
}

// compactStats describes one compaction pass.
type compactStats struct {
	In         int // records scanned
	Out        int // records left after compaction
	Fences     int // records that passed through as global fences
	FencedKeys int // open per-key runs cut short by a fence
}

// netRun is the open per-key run: indices into the input slice of the
// surviving delete / insert / update representative (-1 = none). Emission
// order within a key is always delete, then insert, then update, and the
// indices are strictly increasing in that order by construction, so keeping
// each representative at its own input position preserves it.
type netRun struct {
	del, ins, upd int
}

// compactor coalesces one propagation interval. Buffers are reused across
// calls; a compactor is owned by the transformation's coordinator goroutine
// and is not safe for concurrent use.
type compactor struct {
	keep  []bool
	subst map[int]*wal.Record // synthesized merged updates, by input index
	runs  map[string]*netRun
	out   []*wal.Record
}

func newCompactor() *compactor {
	return &compactor{
		subst: make(map[int]*wal.Record),
		runs:  make(map[string]*netRun),
	}
}

// compact reduces recs to its net effect per source row. The input slice is
// not modified; the returned slice is owned by the compactor and valid until
// the next call.
func (c *compactor) compact(recs []*wal.Record, isSource func(string) bool, nk netKeyer) ([]*wal.Record, compactStats) {
	st := compactStats{In: len(recs)}
	if cap(c.keep) < len(recs) {
		c.keep = make([]bool, len(recs))
	}
	keep := c.keep[:len(recs)]
	for i := range keep {
		keep[i] = false
	}
	clear(c.subst)
	clear(c.runs)

	for i, rec := range recs {
		switch rec.Type {
		case wal.TypeCommit, wal.TypeAbort:
			// End-of-transaction records release transferred locks
			// (handleRecord → shadow.ReleaseTxn) and must keep their
			// position relative to the operations of *later* transactions;
			// they never fence coalescing, because strict 2PL already
			// orders them before any conflicting later write.
			keep[i] = true
			continue
		case wal.TypeInsert, wal.TypeUpdate, wal.TypeDelete, wal.TypeCLR:
			if !isSource(rec.Table) {
				continue // dropped
			}
		case wal.TypeCCBegin, wal.TypeCCOK:
		default:
			// Begins, fuzzy marks, checkpoint and lifecycle records, and
			// retired types are no-ops for propagation: dropped.
			continue
		}

		key, ok := nk.netKey(rec)
		if !ok {
			// Global fence: cut every open run (their survivors stay marked
			// at positions before the fence) and pass the record through.
			st.Fences++
			st.FencedKeys += len(c.runs)
			clear(c.runs)
			keep[i] = true
			continue
		}

		r := c.runs[key]
		if r == nil {
			r = &netRun{del: -1, ins: -1, upd: -1}
			c.runs[key] = r
		}
		switch rec.OpType() {
		case wal.TypeInsert:
			if r.ins >= 0 || r.upd >= 0 {
				// Insert over a live row cannot happen in a well-formed
				// log; stop coalescing this key's history and replay the
				// record as-is (the rules are idempotent either way).
				*r = netRun{del: -1, ins: -1, upd: -1}
			}
			r.ins = i
			keep[i] = true
		case wal.TypeDelete:
			// The trailing delete is the whole net effect: it removes any
			// earlier insert's row, and the per-row LSN guard makes it a
			// no-op when nothing was ever materialized. An earlier delete
			// in the run (delete → insert → delete) is superseded for the
			// same reason.
			if r.del >= 0 {
				keep[r.del] = false
			}
			if r.ins >= 0 {
				keep[r.ins] = false
			}
			if r.upd >= 0 {
				keep[r.upd] = false
				delete(c.subst, r.upd)
			}
			*r = netRun{del: i, ins: -1, upd: -1}
			keep[i] = true
		case wal.TypeUpdate:
			if r.del >= 0 && r.ins < 0 {
				// Update of a deleted row: also impossible; replay as-is.
				*r = netRun{del: -1, ins: -1, upd: -1}
			}
			if r.upd >= 0 {
				prev := recs[r.upd]
				if s := c.subst[r.upd]; s != nil {
					prev = s
					delete(c.subst, r.upd)
				}
				keep[r.upd] = false
				c.subst[i] = mergeUpdates(prev, rec)
			}
			r.upd = i
			keep[i] = true
		default:
			// Unknown operation shape: be conservative, replay as-is.
			keep[i] = true
		}
	}

	out := c.out[:0]
	for i, rec := range recs {
		if !keep[i] {
			continue
		}
		if s := c.subst[i]; s != nil {
			rec = s
		}
		out = append(out, rec)
	}
	c.out = out
	st.Out = len(out)
	return out, st
}

// mergeUpdates folds two updates of the same row into one synthesized
// record: the union of the touched columns with the later value winning per
// column, carrying the later record's LSN and transaction. Log records are
// immutable and shared with the log, so a fresh record is always built.
// Identity (LSN, Txn) comes from the last constituent: its LSN is what the
// per-row idempotence guard must see, and its transaction is the only
// constituent transaction still live at the emission position under strict
// 2PL, so it is the one whose shadow lock must be placed.
func mergeUpdates(base, next *wal.Record) *wal.Record {
	m := &wal.Record{
		LSN:   next.LSN,
		Prev:  next.Prev,
		Txn:   next.Txn,
		Type:  wal.TypeUpdate,
		Table: next.Table,
		Key:   next.Key,
	}
	m.Cols = append(m.Cols, base.Cols...)
	m.New = append(m.New, base.New...)
outer:
	for i, col := range next.Cols {
		for j, have := range m.Cols {
			if have == col {
				m.New[j] = next.New[i]
				continue outer
			}
		}
		m.Cols = append(m.Cols, col)
		m.New = append(m.New, next.New[i])
	}
	return m
}
