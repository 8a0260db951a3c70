package core

import (
	"fmt"
	"sync"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// SplitSpec describes a vertical split transformation T → R, S (Section 5):
// the inverse of the full outer join. R keeps every T column except the ones
// moved to S; the split attributes (a candidate key of the new S, e.g.
// postal code in the paper's Example 1) stay in R as the foreign key and
// become S's key.
type SplitSpec struct {
	// Source names the table T being split.
	Source string
	// Left and Right name the new tables R and S.
	Left, Right string
	// SplitOn lists the split attribute columns (stay in R, key S).
	SplitOn []string
	// RightOnly lists the columns moved to S (functionally dependent on
	// SplitOn, e.g. city in Example 1).
	RightOnly []string
}

// Hidden bookkeeping columns on the new S table: the reference counter of
// Gupta et al. the paper adopts (Section 5), and the C/U consistency flag of
// §5.3 (true = Consistent).
const (
	ColCounter = "_cnt"
	ColFlag    = "_flag"
)

// splitOp implements the operator interface for vertical split.
type splitOp struct {
	tr   *Transformation
	db   *engine.DB
	spec SplitSpec

	tDef       *catalog.TableDef
	rDef, sDef *catalog.TableDef
	rTbl, sTbl *storage.Table

	splitT  []int // split column positions in T
	rFromT  []int // R column i ← T position rFromT[i]
	sFromT  []int // S payload column i ← T position sFromT[i]
	tToR    []int // T position → R position (-1 if moved to S only)
	tToS    []int // T position → S position (-1 if not part of S)
	rSplit  []int // split column positions within R
	cntPos  int   // counter column position in S
	flagPos int   // flag column position in S

	cc *ccState // §5.3 consistency checker (nil when disabled)

	// sMu stripes the read-modify-write cycles on S records (absorbS,
	// releaseS) by split-key hash, so parallel propagation groups whose keys
	// merely hash together absorb occurrences of the same split value
	// atomically. Never held across stripes, so no ordering discipline is
	// needed.
	sMu [64]sync.Mutex
}

// sLock returns the stripe mutex covering one split key.
func (op *splitOp) sLock(key value.Tuple) *sync.Mutex {
	var scratch [64]byte
	return &op.sMu[storage.HashKey(key.AppendEncode(scratch[:0]))%uint32(len(op.sMu))]
}

// NewSplit builds a split transformation. Target tables are created hidden
// during Run.
func NewSplit(db *engine.DB, spec SplitSpec, cfg Config) (*Transformation, error) {
	tr := newTransformation(db, cfg)
	op := &splitOp{tr: tr, db: db, spec: spec}
	if err := op.resolve(); err != nil {
		return nil, err
	}
	if cfg.CheckConsistency {
		op.cc = newCCState(op)
	}
	tr.op = op
	return tr, nil
}

func (op *splitOp) resolve() error {
	if op.spec.Left == "" || op.spec.Right == "" {
		return fmt.Errorf("core: split: empty target name")
	}
	if len(op.spec.SplitOn) == 0 {
		return fmt.Errorf("core: split: no split attributes")
	}
	var err error
	if op.tDef, err = op.db.Catalog().Get(op.spec.Source); err != nil {
		return fmt.Errorf("core: split: source: %w", err)
	}
	if op.splitT, err = op.tDef.ColIndexes(op.spec.SplitOn); err != nil {
		return err
	}
	rightOnly, err := op.tDef.ColIndexes(op.spec.RightOnly)
	if err != nil {
		return err
	}
	moved := make(map[int]bool, len(rightOnly))
	for _, c := range rightOnly {
		moved[c] = true
	}
	for _, c := range op.splitT {
		if moved[c] {
			return fmt.Errorf("core: split: column %s cannot be both split attribute and moved", op.tDef.Columns[c].Name)
		}
	}
	for _, c := range op.tDef.PrimaryKey {
		if moved[c] {
			return fmt.Errorf("core: split: primary key column %s cannot move to %s", op.tDef.Columns[c].Name, op.spec.Right)
		}
	}

	// R: all T columns except the moved ones, same primary key.
	op.tToR = make([]int, len(op.tDef.Columns))
	op.tToS = make([]int, len(op.tDef.Columns))
	for i := range op.tToR {
		op.tToR[i] = -1
		op.tToS[i] = -1
	}
	var rCols []catalog.Column
	for i, c := range op.tDef.Columns {
		if moved[i] {
			continue
		}
		op.tToR[i] = len(rCols)
		op.rFromT = append(op.rFromT, i)
		rCols = append(rCols, c)
	}
	rPkNames := op.tDef.ColNames(op.tDef.PrimaryKey)
	op.rDef, err = catalog.NewTableDef(op.spec.Left, rCols, rPkNames)
	if err != nil {
		return fmt.Errorf("core: split: left: %w", err)
	}
	op.rSplit = make([]int, len(op.splitT))
	for i, c := range op.splitT {
		op.rSplit[i] = op.tToR[c]
	}

	// S: split attributes, then the moved columns, then counter and flag.
	var sCols []catalog.Column
	for _, c := range op.splitT {
		op.tToS[c] = len(sCols)
		op.sFromT = append(op.sFromT, c)
		sCols = append(sCols, op.tDef.Columns[c])
	}
	for _, c := range rightOnly {
		op.tToS[c] = len(sCols)
		op.sFromT = append(op.sFromT, c)
		sCols = append(sCols, op.tDef.Columns[c])
	}
	op.cntPos = len(sCols)
	sCols = append(sCols, catalog.Column{Name: ColCounter, Type: value.KindInt})
	op.flagPos = len(sCols)
	sCols = append(sCols, catalog.Column{Name: ColFlag, Type: value.KindBool})
	op.sDef, err = catalog.NewTableDef(op.spec.Right, sCols, op.spec.SplitOn)
	if err != nil {
		return fmt.Errorf("core: split: right: %w", err)
	}
	return nil
}

// Prepare creates both hidden target tables. An index on the source's split
// attributes is also created so the consistency checker can find the records
// contributing to one S record without scanning T (§5.3).
func (op *splitOp) Prepare() error {
	op.rDef.State = catalog.StateHidden
	op.sDef.State = catalog.StateHidden
	if err := op.db.CreateTable(op.rDef); err != nil {
		return err
	}
	if err := op.db.CreateTable(op.sDef); err != nil {
		return err
	}
	op.rTbl = op.db.Table(op.spec.Left)
	op.sTbl = op.db.Table(op.spec.Right)
	if op.cc != nil {
		src := op.db.Table(op.spec.Source)
		if src == nil {
			return fmt.Errorf("core: split: source storage missing")
		}
		if src.Index(ccSourceIndex) == nil {
			if _, err := src.CreateIndex(ccSourceIndex, op.splitT, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// describe identifies the operator for transform-start lifecycle records.
func (op *splitOp) describe() transformMeta {
	spec := op.spec
	return transformMeta{Kind: "split", Split: &spec}
}

func (op *splitOp) Sources() []string { return []string{op.spec.Source} }
func (op *splitOp) Targets() []string { return []string{op.spec.Left, op.spec.Right} }

// ---- projections ----

func (op *splitOp) rPart(t value.Tuple) value.Tuple { return t.Project(op.rFromT) }

// sPayload projects the S payload (split attributes + moved columns).
func (op *splitOp) sPayload(t value.Tuple) value.Tuple { return t.Project(op.sFromT) }

// sRow builds a full S row from a payload.
func (op *splitOp) sRow(payload value.Tuple, cnt int64, consistent bool) value.Tuple {
	row := make(value.Tuple, len(op.sDef.Columns))
	copy(row, payload)
	row[op.cntPos] = value.Int(cnt)
	row[op.flagPos] = value.Bool(consistent)
	return row
}

func (op *splitOp) splitKeyOfT(t value.Tuple) value.Tuple { return t.Project(op.splitT) }
func (op *splitOp) splitKeyOfR(r value.Tuple) value.Tuple { return r.Project(op.rSplit) }

// payloadMatches reports whether T row t carries the payload of S row s.
func (op *splitOp) payloadMatches(t, s value.Tuple) bool {
	for i, c := range op.sFromT {
		if !t[c].Equal(s[i]) {
			return false
		}
	}
	return true
}

// payloadEqual compares the payload halves of two S rows.
func payloadEqual(a, b value.Tuple, n int) bool {
	return value.Tuple(a[:n]).Equal(value.Tuple(b[:n]))
}

// ---- population ----

// sAgg is what one population worker has seen of one split value: the S row
// built from the first contributing T record (counter and flag are filled in
// when the row is written), how many records contributed, their highest LSN,
// and — under CheckConsistency — whether any of them disagreed with the
// first on the payload.
type sAgg struct {
	row      value.Tuple
	cnt      int64
	lsn      wal.LSN
	disagree bool
}

// fold merges b, another worker's aggregate of the same split value, into a.
// Counters add and LSNs take the maximum, so the order of folding does not
// matter.
func (op *splitOp) fold(a, b *sAgg) {
	a.cnt += b.cnt
	a.lsn = maxLSN(a.lsn, b.lsn)
	if op.cc != nil && (b.disagree || !payloadEqual(a.row, b.row, len(op.sFromT))) {
		a.disagree = true
	}
}

// Populate reads T (fuzzily, or at the population snapshot) and bulk-builds
// the initial images of R and S, one worker per source heap partition at a
// time (bounded by Config.PropagateWorkers). Each R record inherits the LSN
// and the encoded key of the T record it came from — the state identifier
// the split propagation rules compare against — and goes in with its scan
// chunk as one batch; chunks of different partitions carry distinct primary
// keys and never conflict. S is combined before it is written: every worker
// aggregates the split values of all the partitions it scans in a map of its
// own, the workers fold their maps together as they finish, and S is written
// once from the result, one row per split value. Counts and maximum LSNs
// commute, so the image is the same whatever the worker interleaving; until
// that final write S is empty, and a crash before it — like one anywhere
// else in population — is recovered by populating again.
func (op *splitOp) Populate(tick func(int)) (int64, error) {
	src := op.db.Table(op.spec.Source)
	if src == nil {
		return 0, fmt.Errorf("core: split: source storage missing")
	}
	op.rTbl.Reserve(src.Len())
	var (
		mu     sync.Mutex
		rows   int64
		groups map[string]*sAgg
	)
	err := op.tr.forEachPartition(src, func(next func() (int, bool)) error {
		local := make(map[string]*sAgg)
		var kbuf []byte
		var n int64
		var werr error
		for pi, ok := next(); ok && werr == nil; pi, ok = next() {
			op.tr.scanPartition(src, pi, func(recs []storage.Record) {
				if werr != nil {
					return
				}
				batch := make([]storage.Record, len(recs))
				for i, rec := range recs {
					batch[i] = storage.Record{Row: op.rPart(rec.Row), LSN: rec.LSN, Key: rec.Key}
					kbuf = rec.Row.AppendEncodeProject(kbuf[:0], op.splitT)
					a := local[string(kbuf)]
					if a == nil {
						a = &sAgg{row: op.sRow(op.sPayload(rec.Row), 0, true)}
						local[string(kbuf)] = a
					} else if op.cc != nil && !a.disagree && !op.payloadMatches(rec.Row, a.row) {
						a.disagree = true
					}
					a.cnt++
					a.lsn = maxLSN(a.lsn, rec.LSN)
				}
				stored, err := op.rTbl.InsertBatch(batch, nil)
				n += int64(stored)
				if err != nil {
					werr = err
					return
				}
				tick(len(recs))
			})
		}
		if werr != nil {
			return werr
		}
		mu.Lock()
		defer mu.Unlock()
		rows += n
		if groups == nil {
			groups = local
			return nil
		}
		for k, a := range local {
			if g := groups[k]; g != nil {
				op.fold(g, a)
			} else {
				groups[k] = a
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	op.sTbl.Reserve(len(groups))
	batch := make([]storage.Record, 0, len(groups))
	for k, g := range groups {
		g.row[op.cntPos] = value.Int(g.cnt)
		g.row[op.flagPos] = value.Bool(!g.disagree)
		if g.disagree {
			// Records with the same split value and different payloads: the
			// S record's consistency is unknown (§5.3).
			op.cc.markUnknown(value.Tuple(g.row[:len(op.splitT)]))
		}
		batch = append(batch, storage.Record{Row: g.row, LSN: g.lsn, Key: k})
	}
	_, err = op.sTbl.InsertBatch(batch, nil)
	return rows, err
}

// absorbS merges one occurrence of an S payload into the S table: counter
// increment when present (flagging U on value disagreement, §5.3), insert
// with counter 1 otherwise. The get-then-write cycle runs under the split
// key's stripe mutex so concurrent absorbs of the same value never lose an
// increment.
func (op *splitOp) absorbS(rec *wal.Record, payload value.Tuple, lsn wal.LSN) error {
	key := value.Tuple(payload[:len(op.splitT)])
	mu := op.sLock(key)
	mu.Lock()
	defer mu.Unlock()
	op.shadowS(rec, key)
	existing, curLSN, err := op.sTbl.Get(key)
	if err != nil {
		return op.sTbl.Insert(op.sRow(payload, 1, true), lsn)
	}
	newCnt := existing[op.cntPos].AsInt() + 1
	cols := []int{op.cntPos}
	vals := value.Tuple{value.Int(newCnt)}
	if op.cc != nil && !payloadEqual(existing, payload, len(op.sFromT)) {
		// A record not equal to the stored one with the same split value:
		// the S record's consistency is now unknown (§5.3).
		cols = append(cols, op.flagPos)
		vals = append(vals, value.Bool(false))
		op.cc.markUnknown(key)
	}
	_, err = op.sTbl.Update(key, cols, vals, maxLSN(curLSN, lsn))
	return err
}

// releaseS decrements the counter of s^v, removing the record when it
// reaches zero (Section 5: "If the counter of a record reaches zero, the
// record is removed from S").
func (op *splitOp) releaseS(rec *wal.Record, key value.Tuple, lsn wal.LSN) error {
	mu := op.sLock(key)
	mu.Lock()
	defer mu.Unlock()
	op.shadowS(rec, key)
	existing, curLSN, err := op.sTbl.Get(key)
	if err != nil {
		return nil // nothing to release; propagation is idempotent
	}
	cnt := existing[op.cntPos].AsInt() - 1
	if cnt <= 0 {
		op.cc.forget(key)
		_, err = op.sTbl.Delete(key)
		return err
	}
	_, err = op.sTbl.Update(key, []int{op.cntPos}, value.Tuple{value.Int(cnt)}, maxLSN(curLSN, lsn))
	return err
}

// shadowR and shadowS place the transferred lock of the transaction that
// logged rec on r^key / s^key; the key is only encoded when there is such a
// transaction.
func (op *splitOp) shadowR(rec *wal.Record, key value.Tuple) {
	if rec != nil && rec.Txn != 0 {
		op.tr.placeShadow(rec, op.spec.Left, key.Encode())
	}
}

func (op *splitOp) shadowS(rec *wal.Record, key value.Tuple) {
	if rec != nil && rec.Txn != 0 {
		op.tr.placeShadow(rec, op.spec.Right, key.Encode())
	}
	op.cc.invalidate(key)
}

// ---- log propagation (§5.2, rules 8–11) ----

// Apply redoes one log record onto R and S.
func (op *splitOp) Apply(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeCCBegin, wal.TypeCCOK:
		return op.cc.handle(rec)
	}
	if rec.Table != op.spec.Source {
		return nil
	}
	switch rec.OpType() {
	case wal.TypeInsert:
		op.tr.countRule(8)
		return op.rule8Insert(rec)
	case wal.TypeDelete:
		op.tr.countRule(9)
		return op.rule9Delete(rec)
	case wal.TypeUpdate:
		op.tr.countRule(10)
		return op.rule10And11Update(rec)
	default:
		return nil
	}
}

// conflictKeys declares, per log record, the target-side keys rules 8–11
// touch, enabling parallel propagation (the conflictKeyer interface):
//
//   - insert/delete of t^y_v → {txn, r:y, s:v}: the rules read/write r^y
//     and the shared counter of s^v. For deletes the s key is taken from the
//     before-image, which is sound because every earlier operation on y
//     either shares the r:y key (ordered before, same group) or was a
//     split-attribute change (a barrier), so the stored R row rule 9 reads
//     the split value from reflects exactly the before-image's split value.
//   - update touching neither T's primary key nor any column represented in
//     S → {txn, r:y}: rule 10 alone, confined to r^y.
//   - update touching the primary key or an S column → barrier: rule 11's
//     touch set (which S records, under which old split value) depends on
//     the current R/S state and cannot be derived from the record.
//   - commit/abort → {txn}: orders the transferred-lock release after every
//     shadow placement the transaction's own operations made (operations
//     carry their txn key too).
//   - consistency-checker records → barrier (they validate cross-record
//     state).
//
// CLRs are classified by their compensating operation, exactly as Apply
// replays them; a CLR missing its payload (no before-image to derive the
// split value from) degrades to a barrier.
func (op *splitOp) conflictKeys(rec *wal.Record) ([]string, bool) {
	switch rec.Type {
	case wal.TypeCCBegin, wal.TypeCCOK:
		return nil, false
	case wal.TypeCommit, wal.TypeAbort:
		return []string{txnConflictKey(rec.Txn)}, true
	}
	keys := make([]string, 0, 3)
	if rec.Txn != 0 {
		keys = append(keys, txnConflictKey(rec.Txn))
	}
	switch rec.OpType() {
	case wal.TypeInsert, wal.TypeDelete:
		if rec.Row == nil {
			return nil, false
		}
		keys = append(keys,
			"r\x00"+rec.Key.Encode(),
			"s\x00"+op.splitKeyOfT(rec.Row).Encode())
		return keys, true
	case wal.TypeUpdate:
		if touchesAny(rec.Cols, op.tDef.PrimaryKey) {
			return nil, false
		}
		for _, c := range rec.Cols {
			if op.tToS[c] >= 0 {
				return nil, false
			}
		}
		keys = append(keys, "r\x00"+rec.Key.Encode())
		return keys, true
	default:
		return keys, true
	}
}

func txnConflictKey(id wal.TxnID) string {
	return fmt.Sprintf("txn\x00%d", id)
}

// netKey declares, per log record, the coalescing key for net-effect
// compaction (the netKeyer interface). The classification mirrors
// conflictKeys, with the key narrowed to the source row: rules 8–10 are
// keyed purely by r^y, and rule 11's S-side work for an insert or delete is
// derived from the row's split value, which coalescing never changes —
// updates that touch a split attribute (or the primary key) fence, exactly
// as they barrier in conflictKeys, because their S-side touch set depends
// on live R/S state. Consistency-checker records fence for the same reason,
// and a payload-less CLR (no row image to classify by) degrades to a fence.
func (op *splitOp) netKey(rec *wal.Record) (string, bool) {
	switch rec.Type {
	case wal.TypeCCBegin, wal.TypeCCOK:
		return "", false
	}
	switch rec.OpType() {
	case wal.TypeInsert, wal.TypeDelete:
		if rec.Row == nil {
			return "", false
		}
		return rec.Key.Encode(), true
	case wal.TypeUpdate:
		if touchesAny(rec.Cols, op.tDef.PrimaryKey) {
			return "", false
		}
		for _, c := range rec.Cols {
			if op.tToS[c] >= 0 {
				return "", false
			}
		}
		return rec.Key.Encode(), true
	default:
		return "", false
	}
}

// rule8Insert implements Rule 8 (Insert t^y_x into T).
func (op *splitOp) rule8Insert(rec *wal.Record) error {
	y := rec.Key
	op.shadowR(rec, y)
	if _, _, err := op.rTbl.Get(y); err == nil {
		return nil // r^y exists: the log record is already reflected
	}
	if err := op.rTbl.Insert(op.rPart(rec.Row), rec.LSN); err != nil {
		return err
	}
	return op.absorbS(rec, op.sPayload(rec.Row), rec.LSN)
}

// rule9Delete implements Rule 9 (Delete t^y from T).
func (op *splitOp) rule9Delete(rec *wal.Record) error {
	y := rec.Key
	op.shadowR(rec, y)
	r, lsn, err := op.rTbl.Get(y)
	if err != nil || lsn > rec.LSN {
		return nil // missing or newer: ignore
	}
	v := op.splitKeyOfR(r)
	if _, err := op.rTbl.Delete(y); err != nil {
		return err
	}
	return op.releaseS(rec, v, rec.LSN)
}

// rule10And11Update implements Rule 10 (update the R part) and Rule 11
// (update the S part). Rule 11 only runs when Rule 10 applied: the LSNs in R
// uniquely identify which operations are already reflected, and if an
// operation is reflected in R it is also reflected in S.
func (op *splitOp) rule10And11Update(rec *wal.Record) error {
	y := rec.Key
	op.shadowR(rec, y)
	r, lsn, err := op.rTbl.Get(y)
	if err != nil || lsn >= rec.LSN {
		return nil // missing, newer, or exactly this operation: ignore
	}
	vOld := op.splitKeyOfR(r)

	// Rule 10: update the R part. The LSN advances even when the update
	// touches no R column.
	var rCols []int
	var rVals value.Tuple
	var sCols []int // S payload positions
	var sVals value.Tuple
	splitChanged := false
	for i, c := range rec.Cols {
		if rp := op.tToR[c]; rp >= 0 {
			rCols = append(rCols, rp)
			rVals = append(rVals, rec.New[i])
		}
		if sp := op.tToS[c]; sp >= 0 {
			sCols = append(sCols, sp)
			sVals = append(sVals, rec.New[i])
			if sp < len(op.splitT) {
				splitChanged = true
			}
		}
	}
	if len(rCols) > 0 {
		if _, err := op.rTbl.Update(y, rCols, rVals, rec.LSN); err != nil {
			return err
		}
	} else if err := op.rTbl.SetLSN(y, rec.LSN); err != nil {
		return err
	}

	// Rule 11: update the S part.
	if len(sCols) == 0 {
		return nil
	}
	op.tr.countRule(11)
	if !splitChanged {
		op.shadowS(rec, vOld)
		s, slsn, err := op.sTbl.Get(vOld)
		if err != nil {
			return nil // s^vOld not represented (should not happen; idempotence)
		}
		if slsn >= rec.LSN {
			return nil
		}
		cols := append([]int(nil), sCols...)
		vals := sVals.Clone()
		if op.cc != nil {
			if s[op.cntPos].AsInt() > 1 {
				// An update applied to a shared S record may disagree with
				// the other contributing T records (§5.3).
				cols = append(cols, op.flagPos)
				vals = append(vals, value.Bool(false))
				op.cc.markUnknown(vOld)
			} else if len(sCols) == len(op.sFromT)-len(op.splitT) {
				// Counter 1 and all non-key attributes overwritten: the
				// record is known consistent again.
				cols = append(cols, op.flagPos)
				vals = append(vals, value.Bool(true))
				op.cc.forget(vOld)
			}
		}
		_, err = op.sTbl.Update(vOld, cols, vals, rec.LSN)
		return err
	}

	// The split attribute changed: treat as delete of s^vOld followed by
	// insert of s^vNew, extracting the unlogged attribute values from the
	// old S record.
	sOld, _, err := op.sTbl.Get(vOld)
	if err != nil {
		// The old S record vanished; reconstruct what we can only if the
		// update supplies the full payload.
		if len(sCols) == len(op.sFromT) {
			sOld = op.sRow(make(value.Tuple, len(op.sFromT)), 0, true)
		} else {
			return nil
		}
	}
	payload := make(value.Tuple, len(op.sFromT))
	copy(payload, sOld[:len(op.sFromT)])
	for i, sp := range sCols {
		payload[sp] = sVals[i]
	}
	if err := op.releaseS(rec, vOld, rec.LSN); err != nil {
		return err
	}
	return op.absorbS(rec, payload, rec.LSN)
}

// MirrorKeys maps a locked T record to its R record and, via R, its S record.
func (op *splitOp) MirrorKeys(table string, key value.Tuple) []TargetKey {
	if table != op.spec.Source {
		return nil
	}
	out := []TargetKey{{Table: op.spec.Left, Key: key.Encode()}}
	if r, _, err := op.rTbl.Get(key); err == nil {
		out = append(out, TargetKey{Table: op.spec.Right, Key: op.splitKeyOfR(r).Encode()})
	}
	return out
}

// MaintenanceTick runs one consistency-checker round (§5.3) when enabled.
func (op *splitOp) MaintenanceTick() error {
	if op.cc == nil {
		return nil
	}
	return op.cc.tick()
}

// ReadyToSync requires every S record to carry a C flag before
// synchronization starts (§5.3).
func (op *splitOp) ReadyToSync() bool { return op.cc.clean() }

// CCStats returns the consistency checker's round and repair counts.
func (op *splitOp) CCStats() (int64, int64) { return op.cc.stats() }

// ---- helpers ----

func maxLSN(a, b wal.LSN) wal.LSN {
	if a > b {
		return a
	}
	return b
}
