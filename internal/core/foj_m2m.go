package core

import (
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Many-to-many full outer join (§4.2). Each R record can join with multiple
// S records and vice versa, so T's key is the pair of source keys
// (t^{y,v}_z in the paper's notation) and operations on R records must
// affect every T record the R record contributed to.

// applyM2M dispatches one log record under the many-to-many rules.
func (op *fojOp) applyM2M(rec *wal.Record) error {
	switch rec.Table {
	case op.spec.Left:
		switch rec.OpType() {
		case wal.TypeInsert:
			op.tr.countRule(1)
			return op.m2mInsertR(rec, rec.Row)
		case wal.TypeDelete:
			op.tr.countRule(3)
			return op.m2mDeleteR(rec, rec.Key)
		case wal.TypeUpdate:
			if touchesAny(rec.Cols, op.rJoin) || touchesAny(rec.Cols, op.rDef.PrimaryKey) {
				op.tr.countRule(5)
				return op.m2mUpdateRJoin(rec)
			}
			op.tr.countRule(7)
			return op.rule7UpdateR(rec) // same as 1:N: update all t^{y,*}
		}
	case op.spec.Right:
		switch rec.OpType() {
		case wal.TypeInsert:
			op.tr.countRule(2)
			return op.m2mInsertS(rec, rec.Row)
		case wal.TypeDelete:
			op.tr.countRule(4)
			return op.m2mDeleteS(rec, rec.Key)
		case wal.TypeUpdate:
			if touchesAny(rec.Cols, op.sJoin) || touchesAny(rec.Cols, op.sDef.PrimaryKey) {
				op.tr.countRule(6)
				return op.m2mUpdateSJoin(rec)
			}
			op.tr.countRule(7)
			return op.rule7UpdateS(rec)
		}
	}
	return nil
}

// distinctSPartners returns, for a join group, each distinct S record in it
// (by S key) together with the t^null row carrying it unpaired, if any.
type sPartner struct {
	sPart value.Tuple
	sLSN  wal.LSN
	null  value.Tuple // the r-less carrier, if any
}

func (op *fojOp) distinctSPartners(group []value.Tuple) map[string]sPartner {
	out := make(map[string]sPartner)
	for _, t := range group {
		if !op.hasS(t) {
			continue
		}
		k := t.Project(op.sPkT).Encode()
		e, ok := out[k]
		if !ok {
			e.sPart = op.sPartOf(t)
			e.sLSN = op.sLSNOf(t)
		}
		if !op.hasR(t) {
			e.null = t
		}
		out[k] = e
	}
	return out
}

// m2mInsertR implements insert of r^y_z for many-to-many: a T record is
// created for every matching S record; unpaired s carriers are consumed.
func (op *fojOp) m2mInsertR(rec *wal.Record, rRow value.Tuple) error {
	y := rRow.Project(op.rDef.PrimaryKey)
	if existing := op.lookup(IndexRKey, y); len(existing) > 0 {
		return nil // already reflected (Theorem 1)
	}
	z := rRow.Project(op.rJoin)
	partners := op.distinctSPartners(op.lookup(IndexJoin, z))
	if len(partners) == 0 {
		return op.insertRow(rec, op.rowFromR(rRow, rec.LSN))
	}
	for _, p := range partners {
		if p.null != nil {
			if err := op.replaceRow(rec, p.null, op.joinRow(rRow, p.sPart, rec.LSN, p.sLSN)); err != nil {
				return err
			}
			continue
		}
		if err := op.insertRow(rec, op.joinRow(rRow, p.sPart, rec.LSN, p.sLSN)); err != nil {
			return err
		}
	}
	return nil
}

// m2mDeleteR implements delete of r^y: every T record r contributed to is
// removed, preserving S counterparts that would otherwise vanish.
func (op *fojOp) m2mDeleteR(rec *wal.Record, y value.Tuple) error {
	rows := op.lookup(IndexRKey, y)
	for _, t := range rows {
		if op.rStale(t, rec.LSN) {
			continue
		}
		if op.hasS(t) {
			sKey := t.Project(op.sPkT)
			carriers := 0
			for _, g := range op.lookup(op.sIdentityIndex(), sKey) {
				if op.hasS(g) {
					carriers++
				}
			}
			if carriers == 1 {
				if err := op.insertRow(rec, op.rowFromS(op.sPartOf(t), op.sLSNOf(t))); err != nil {
					return err
				}
			}
		}
		if err := op.deleteRow(rec, t); err != nil {
			return err
		}
	}
	return nil
}

// m2mUpdateRJoin implements the §4.2 sketch for join-attribute (or key)
// updates of r: all T records r contributed to are deleted (ensuring the
// continued existence of their S counterparts), then the new join matches
// are inserted.
func (op *fojOp) m2mUpdateRJoin(rec *wal.Record) error {
	rows := op.lookup(IndexRKey, rec.Key)
	if len(rows) == 0 {
		return nil
	}
	if op.rStale(rows[0], rec.LSN) {
		return nil // all of r's rows already reflect a newer R-half state
	}
	rNew := op.rPartOf(rows[0])
	for i, c := range rec.Cols {
		rNew[c] = rec.New[i]
	}
	if err := op.m2mDeleteR(rec, rec.Key); err != nil {
		return err
	}
	// Reinsert under the new values; m2mInsertR's existence check passes
	// because every t^{y,*} was just removed (unless the key changed onto an
	// existing record, in which case Theorem 1 says we are done).
	return op.m2mInsertR(rec, rNew)
}

// m2mInsertS implements insert of s^k_x: a T record appears for every
// matching R record, consuming unpaired r carriers.
func (op *fojOp) m2mInsertS(rec *wal.Record, sRow value.Tuple) error {
	k := sRow.Project(op.sDef.PrimaryKey)
	for _, t := range op.lookup(op.sIdentityIndex(), k) {
		if op.hasS(t) {
			if op.sStale(t, rec.LSN) {
				return nil // already reflected (or a newer incarnation)
			}
			// A stale incarnation of this identity: remove it first, then
			// fall through to the normal insert.
			if err := op.m2mDeleteS(rec, k); err != nil {
				return err
			}
			break
		}
	}
	x := sRow.Project(op.sJoin)
	group := op.lookup(IndexJoin, x)
	inserted := false
	seenR := make(map[string]bool)
	for _, t := range group {
		if !op.hasR(t) {
			continue
		}
		rKey := t.Project(op.rPk).Encode()
		if seenR[rKey] {
			continue
		}
		seenR[rKey] = true
		if !op.hasS(t) {
			// r currently unpaired: pair it with s in place.
			if err := op.replaceRow(rec, t, op.joinRow(op.rPartOf(t), sRow, op.rLSNOf(t), rec.LSN)); err != nil {
				return err
			}
		} else {
			if err := op.insertRow(rec, op.joinRow(op.rPartOf(t), sRow, op.rLSNOf(t), rec.LSN)); err != nil {
				return err
			}
		}
		inserted = true
	}
	if !inserted {
		return op.insertRow(rec, op.rowFromS(sRow, rec.LSN))
	}
	return nil
}

// m2mDeleteS implements delete of s^k: every T record carrying s is removed
// or, when it holds the last reference to its R record, detached to t^y_null.
func (op *fojOp) m2mDeleteS(rec *wal.Record, k value.Tuple) error {
	for _, t := range op.lookup(op.sIdentityIndex(), k) {
		if !op.hasS(t) || op.sStale(t, rec.LSN) {
			continue
		}
		if !op.hasR(t) {
			if err := op.deleteRow(rec, t); err != nil {
				return err
			}
			continue
		}
		// Does this r appear in other T records with an S half?
		rKey := t.Project(op.rPk)
		tEnc := op.tKey(t).Encode()
		others := 0
		for _, g := range op.lookup(IndexRKey, rKey) {
			if op.hasS(g) && op.tKey(g).Encode() != tEnc {
				others++
			}
		}
		if others > 0 {
			if err := op.deleteRow(rec, t); err != nil {
				return err
			}
		} else {
			if err := op.replaceRow(rec, t, op.detachS(t, rec.LSN)); err != nil {
				return err
			}
		}
	}
	return nil
}

// m2mUpdateSJoin handles join-attribute (or key) updates of s as a delete of
// the old identity followed by an insert of the new one, with values
// extracted from T.
func (op *fojOp) m2mUpdateSJoin(rec *wal.Record) error {
	group := op.lookup(op.sIdentityIndex(), rec.Key)
	var sOld value.Tuple
	for _, t := range group {
		if op.hasS(t) && !op.sStale(t, rec.LSN) {
			sOld = op.sPartOf(t)
			break
		}
	}
	if sOld == nil {
		return nil // not represented, or already in a newer state
	}
	sNew := sOld.Clone()
	for i, c := range rec.Cols {
		sNew[c] = rec.New[i]
	}
	if err := op.m2mDeleteS(rec, rec.Key); err != nil {
		return err
	}
	return op.m2mInsertS(rec, sNew)
}
