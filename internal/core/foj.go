package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// JoinSpec describes a full outer join transformation R ⟗ S → T (Section 4).
type JoinSpec struct {
	// Target names the transformed table T created by the transformation.
	Target string
	// Left and Right name the source tables R and S.
	Left, Right string
	// On pairs the join attributes: each element is (left column, right
	// column). In the one-to-many case the right columns must form a
	// candidate key of S; in the many-to-many case they need not.
	On [][2]string
	// ManyToMany declares that the right join attributes are not unique in
	// S, activating the §4.2 rules. S's primary key then identifies
	// S-records, and T's key is the pair of source keys.
	ManyToMany bool
}

// Hidden bookkeeping columns appended to the transformed table. A record in
// T is the join of up to two source records; the flags record which halves
// are present (rnull/snull in the paper's notation), and the two LSN columns
// carry a state identifier per half.
//
// The per-half LSNs deviate from the paper, which propagates FOJ without
// state identifiers because "the resulting record may only have one LSN"
// (§4.2). Randomized testing of this reproduction found a corner case the
// identifier-free rules cannot converge on: when an S identity is recycled
// inside the fuzzy window (s^x moves to z, then another record moves onto
// x), a stale re-application of the first move destroys the newer record,
// and the later log records — keyed by identities that no longer match —
// cannot rebuild it. Giving each *half* of a joined record its own LSN —
// information the source records legitimately carry — restores Theorem 1's
// per-record monotonicity: a logged operation is skipped whenever the
// affected half already reflects an operation at or after it.
const (
	ColHasLeft  = "_r"
	ColHasRight = "_s"
	ColLeftLSN  = "_rlsn"
	ColRightLSN = "_slsn"
)

// Index names created on the transformed table (§4.1).
const (
	IndexRKey = "_rkey" // identifying attributes of R in T
	IndexJoin = "_join" // join attributes of T
	IndexSKey = "_skey" // identifying attributes of S in T
)

// fojOp implements the operator interface for full outer join.
type fojOp struct {
	tr   *Transformation
	db   *engine.DB
	spec JoinSpec

	rDef, sDef *catalog.TableDef
	tDef       *catalog.TableDef
	tTbl       *storage.Table

	rJoin []int // join column positions in R
	sJoin []int // join column positions in S
	// layout of T: R columns first (verbatim), then S columns that are not
	// join columns, then the flags and half-LSNs.
	sToT  []int // S column position → T position (join cols map to R side)
	rPk   []int // R primary key positions (same positions in T)
	sPkT  []int // S primary key positions mapped into T
	joinT []int // join attribute positions in T (== rJoin positions)
	flagR int
	flagS int
	lsnR  int
	lsnS  int
	tPk   []int // storage key of T: rPk ∪ sPkT
}

// NewFullOuterJoin builds a full outer join transformation. Target tables
// are created hidden during Run; nothing happens before Run is called.
func NewFullOuterJoin(db *engine.DB, spec JoinSpec, cfg Config) (*Transformation, error) {
	tr := newTransformation(db, cfg)
	op := &fojOp{tr: tr, db: db, spec: spec}
	if err := op.resolve(); err != nil {
		return nil, err
	}
	tr.op = op
	return tr, nil
}

// resolve validates the spec against the catalog and computes the layout of
// the transformed table.
func (op *fojOp) resolve() error {
	if op.spec.Target == "" {
		return fmt.Errorf("core: join: empty target name")
	}
	if len(op.spec.On) == 0 {
		return fmt.Errorf("core: join: no join attributes")
	}
	var err error
	if op.rDef, err = op.db.Catalog().Get(op.spec.Left); err != nil {
		return fmt.Errorf("core: join: left: %w", err)
	}
	if op.sDef, err = op.db.Catalog().Get(op.spec.Right); err != nil {
		return fmt.Errorf("core: join: right: %w", err)
	}
	op.rJoin = make([]int, len(op.spec.On))
	op.sJoin = make([]int, len(op.spec.On))
	for i, pair := range op.spec.On {
		if op.rJoin[i] = op.rDef.ColIndex(pair[0]); op.rJoin[i] < 0 {
			return fmt.Errorf("core: join: %s has no column %s", op.spec.Left, pair[0])
		}
		if op.sJoin[i] = op.sDef.ColIndex(pair[1]); op.sJoin[i] < 0 {
			return fmt.Errorf("core: join: %s has no column %s", op.spec.Right, pair[1])
		}
		rc, sc := op.rDef.Columns[op.rJoin[i]], op.sDef.Columns[op.sJoin[i]]
		if rc.Type != sc.Type {
			return fmt.Errorf("core: join: type mismatch on %s/%s: %v vs %v", rc.Name, sc.Name, rc.Type, sc.Type)
		}
	}
	if op.spec.ManyToMany && containsAll(op.sJoin, op.sDef.PrimaryKey) {
		return fmt.Errorf("core: join: many-to-many requires an S key distinct from the join attributes")
	}

	// Build the T column list: R columns, then non-join S columns, then the
	// presence flags and per-half LSNs. Everything user-visible is nullable
	// in T (outer join).
	var cols []catalog.Column
	for _, c := range op.rDef.Columns {
		cols = append(cols, catalog.Column{Name: c.Name, Type: c.Type, Nullable: true})
	}
	op.sToT = make([]int, len(op.sDef.Columns))
	for i := range op.sToT {
		op.sToT[i] = -1
	}
	for i, sc := range op.sJoin {
		op.sToT[sc] = op.rJoin[i]
	}
	for i, c := range op.sDef.Columns {
		if op.sToT[i] >= 0 {
			continue // a join column, shared with R
		}
		name := c.Name
		if op.rDef.ColIndex(name) >= 0 {
			name = op.spec.Right + "_" + name // disambiguate collisions
		}
		op.sToT[i] = len(cols)
		cols = append(cols, catalog.Column{Name: name, Type: c.Type, Nullable: true})
	}
	op.flagR = len(cols)
	cols = append(cols, catalog.Column{Name: ColHasLeft, Type: value.KindBool})
	op.flagS = len(cols)
	cols = append(cols, catalog.Column{Name: ColHasRight, Type: value.KindBool})
	op.lsnR = len(cols)
	cols = append(cols, catalog.Column{Name: ColLeftLSN, Type: value.KindInt})
	op.lsnS = len(cols)
	cols = append(cols, catalog.Column{Name: ColRightLSN, Type: value.KindInt})

	op.rPk = append([]int(nil), op.rDef.PrimaryKey...)
	op.joinT = append([]int(nil), op.rJoin...)
	op.sPkT = make([]int, len(op.sDef.PrimaryKey))
	for i, sc := range op.sDef.PrimaryKey {
		op.sPkT[i] = op.sToT[sc]
	}
	// T's storage key: identifying attributes from both sources (§3.1).
	seen := make(map[int]bool)
	for _, c := range op.rPk {
		if !seen[c] {
			seen[c] = true
			op.tPk = append(op.tPk, c)
		}
	}
	for _, c := range op.sPkT {
		if !seen[c] {
			seen[c] = true
			op.tPk = append(op.tPk, c)
		}
	}

	pkNames := make([]string, len(op.tPk))
	for i, c := range op.tPk {
		pkNames[i] = cols[c].Name
	}
	def, err := catalog.NewTableDef(op.spec.Target, cols, pkNames)
	if err != nil {
		return fmt.Errorf("core: join: target: %w", err)
	}
	op.tDef = def
	return nil
}

// Prepare creates the hidden target table and its indexes (§4.1).
func (op *fojOp) Prepare() error {
	op.tDef.State = catalog.StateHidden
	if err := op.db.CreateTable(op.tDef); err != nil {
		return err
	}
	op.tTbl = op.db.Table(op.spec.Target)
	if _, err := op.tTbl.CreateIndex(IndexRKey, op.rPk, false); err != nil {
		return err
	}
	if _, err := op.tTbl.CreateIndex(IndexJoin, op.joinT, false); err != nil {
		return err
	}
	if !equalInts(op.sPkT, op.joinT) {
		if _, err := op.tTbl.CreateIndex(IndexSKey, op.sPkT, false); err != nil {
			return err
		}
	}
	return nil
}

// describe identifies the operator for transform-start lifecycle records.
func (op *fojOp) describe() transformMeta {
	spec := op.spec
	return transformMeta{Kind: "foj", Join: &spec}
}

func (op *fojOp) Sources() []string { return []string{op.spec.Left, op.spec.Right} }
func (op *fojOp) Targets() []string { return []string{op.spec.Target} }

// MaintenanceTick is a no-op for FOJ (no consistency checker needed).
func (op *fojOp) MaintenanceTick() error { return nil }

// ReadyToSync always holds for FOJ.
func (op *fojOp) ReadyToSync() bool { return true }

// CCStats is zero for FOJ (no consistency checker).
func (op *fojOp) CCStats() (int64, int64) { return 0, 0 }

// ---- row construction helpers ----

// hasR reports whether the T row carries an R half.
func (op *fojOp) hasR(t value.Tuple) bool { return t[op.flagR].AsBool() }

// hasS reports whether the T row carries an S half.
func (op *fojOp) hasS(t value.Tuple) bool { return t[op.flagS].AsBool() }

// rLSNOf returns the state identifier of the row's R half.
func (op *fojOp) rLSNOf(t value.Tuple) wal.LSN { return wal.LSN(t[op.lsnR].AsInt()) }

// sLSNOf returns the state identifier of the row's S half.
func (op *fojOp) sLSNOf(t value.Tuple) wal.LSN { return wal.LSN(t[op.lsnS].AsInt()) }

// rStale reports that the row's R half already reflects lsn or newer.
func (op *fojOp) rStale(t value.Tuple, lsn wal.LSN) bool { return op.rLSNOf(t) >= lsn }

// sStale reports that the row's S half already reflects lsn or newer.
func (op *fojOp) sStale(t value.Tuple, lsn wal.LSN) bool { return op.sLSNOf(t) >= lsn }

// rowFromR builds t^y_null from an R row: the join attributes carry R's
// values, the S-only columns are NULL.
func (op *fojOp) rowFromR(r value.Tuple, rlsn wal.LSN) value.Tuple {
	t := make(value.Tuple, len(op.tDef.Columns))
	copy(t, r)
	t[op.flagR] = value.Bool(true)
	t[op.flagS] = value.Bool(false)
	t[op.lsnR] = value.Int(int64(rlsn))
	t[op.lsnS] = value.Int(0)
	return t
}

// rowFromS builds t^null_x from an S row: R columns are NULL except the join
// attributes, which carry S's values.
func (op *fojOp) rowFromS(s value.Tuple, slsn wal.LSN) value.Tuple {
	t := make(value.Tuple, len(op.tDef.Columns))
	for i, pos := range op.sToT {
		t[pos] = s[i]
	}
	t[op.flagR] = value.Bool(false)
	t[op.flagS] = value.Bool(true)
	t[op.lsnR] = value.Int(0)
	t[op.lsnS] = value.Int(int64(slsn))
	return t
}

// joinRow builds t^y_x from both halves.
func (op *fojOp) joinRow(r, s value.Tuple, rlsn, slsn wal.LSN) value.Tuple {
	t := op.rowFromR(r, rlsn)
	for i, pos := range op.sToT {
		t[pos] = s[i]
	}
	t[op.flagS] = value.Bool(true)
	t[op.lsnS] = value.Int(int64(slsn))
	return t
}

// sPartOf reconstructs the S row embedded in a T row.
func (op *fojOp) sPartOf(t value.Tuple) value.Tuple {
	s := make(value.Tuple, len(op.sDef.Columns))
	for i, pos := range op.sToT {
		s[i] = t[pos]
	}
	return s
}

// rPartOf reconstructs the R row embedded in a T row.
func (op *fojOp) rPartOf(t value.Tuple) value.Tuple {
	r := make(value.Tuple, len(op.rDef.Columns))
	copy(r, t[:len(op.rDef.Columns)])
	return r
}

// detachS nulls the S half of a T row in place (joins it with snull),
// advancing the S half's state to lsn. The join attributes are left
// untouched — they belong to the R half too.
func (op *fojOp) detachS(t value.Tuple, lsn wal.LSN) value.Tuple {
	out := t.Clone()
	for _, pos := range op.sToT {
		if !isJoinPos(op.joinT, pos) {
			out[pos] = value.Null()
		}
	}
	out[op.flagS] = value.Bool(false)
	out[op.lsnS] = value.Int(int64(lsn))
	return out
}

func isJoinPos(join []int, pos int) bool {
	for _, j := range join {
		if j == pos {
			return true
		}
	}
	return false
}

// tKey returns the storage key of a T row.
func (op *fojOp) tKey(t value.Tuple) value.Tuple { return t.Project(op.tPk) }

// replaceRow replaces the stored T row old with new (delete + insert,
// handling re-keying), placing a shadow lock on both keys.
func (op *fojOp) replaceRow(rec *wal.Record, old, newRow value.Tuple) error {
	oldKey := op.tKey(old)
	newKey := op.tKey(newRow)
	op.tr.placeShadow(rec, op.spec.Target, oldKey.Encode())
	if _, err := op.tTbl.Delete(oldKey); err != nil {
		return err
	}
	op.tr.placeShadow(rec, op.spec.Target, newKey.Encode())
	return op.tTbl.Insert(newRow, 0)
}

// insertRow inserts a fresh T row, placing a shadow lock.
func (op *fojOp) insertRow(rec *wal.Record, t value.Tuple) error {
	op.tr.placeShadow(rec, op.spec.Target, op.tKey(t).Encode())
	return op.tTbl.Insert(t, 0)
}

// deleteRow removes a T row, placing a shadow lock.
func (op *fojOp) deleteRow(rec *wal.Record, t value.Tuple) error {
	key := op.tKey(t)
	op.tr.placeShadow(rec, op.spec.Target, key.Encode())
	_, err := op.tTbl.Delete(key)
	return err
}

// lookup returns the T rows matching key on the named index.
func (op *fojOp) lookup(index string, key value.Tuple) []value.Tuple {
	rows, _, err := op.tTbl.LookupIndex(index, key)
	if err != nil {
		return nil
	}
	return rows
}

// sIdentityIndex returns the index that identifies S-records inside T for a
// log record keyed by S's primary key.
func (op *fojOp) sIdentityIndex() string {
	if equalInts(op.sPkT, op.joinT) {
		return IndexJoin
	}
	return IndexSKey
}

// ---- population (§4.1, initial population step) ----

// sGroup is the image of the S records sharing one join value: exactly one
// record in the 1:N case, where the join attributes are a candidate key of
// S. matched is raised by the R pass once any R record joined the group.
type sGroup struct {
	recs    []storage.Record
	matched atomic.Bool
}

// Populate reads R and S (fuzzily, or at the population snapshot) and
// bulk-builds FOJ(R0', S0') in T. The scans are chunked, so concurrent
// updates interleave — the initial image is genuinely fuzzy and the log
// propagation repairs it. Each half of a joined row inherits its source
// record's LSN as the state identifier.
//
// Both scans run one worker per source heap partition at a time (bounded by
// Config.PropagateWorkers). The S image is built in per-worker maps folded
// together under a mutex — in the many-to-many case a group's record set is
// interleaving-independent and only its order varies, and every (r, s) pair
// produces the same T row regardless. The R pass reads that image read-only
// and inserts the T rows of each scan chunk as one batch; chunks carry
// distinct T keys, so the result is independent of worker interleaving.
func (op *fojOp) Populate(tick func(int)) (int64, error) {
	rTbl := op.db.Table(op.spec.Left)
	sTbl := op.db.Table(op.spec.Right)
	if rTbl == nil || sTbl == nil {
		return 0, fmt.Errorf("core: join: source storage missing")
	}
	var mu sync.Mutex
	sByJoin := make(map[string]*sGroup)
	if err := op.tr.forEachPartition(sTbl, func(next func() (int, bool)) error {
		local := make(map[string]*sGroup)
		var kbuf []byte
		for pi, ok := next(); ok; pi, ok = next() {
			// The chunked scan delivers rows with no latch held so the
			// priority throttle never blocks writers.
			op.tr.scanPartition(sTbl, pi, func(recs []storage.Record) {
				for _, rec := range recs {
					kbuf = rec.Row.AppendEncodeProject(kbuf[:0], op.sJoin)
					g := local[string(kbuf)]
					if g == nil {
						g = &sGroup{}
						local[string(kbuf)] = g
					}
					if !op.spec.ManyToMany {
						g.recs = g.recs[:0]
					}
					g.recs = append(g.recs, rec)
				}
				tick(len(recs))
			})
		}
		mu.Lock()
		defer mu.Unlock()
		for k, g := range local {
			if have := sByJoin[k]; have != nil && op.spec.ManyToMany {
				have.recs = append(have.recs, g.recs...)
			} else {
				sByJoin[k] = g
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}

	op.tTbl.Reserve(rTbl.Len())
	var rows int64
	if err := op.tr.forEachPartition(rTbl, func(next func() (int, bool)) error {
		var kbuf []byte
		var n int64
		var werr error
		for pi, ok := next(); ok && werr == nil; pi, ok = next() {
			op.tr.scanPartition(rTbl, pi, func(recs []storage.Record) {
				if werr != nil {
					return
				}
				batch := make([]storage.Record, 0, len(recs))
				for _, rec := range recs {
					kbuf = rec.Row.AppendEncodeProject(kbuf[:0], op.rJoin)
					g := sByJoin[string(kbuf)]
					if g == nil {
						batch = append(batch, storage.Record{Row: op.rowFromR(rec.Row, rec.LSN)})
						continue
					}
					if !g.matched.Load() {
						g.matched.Store(true)
					}
					for _, s := range g.recs {
						batch = append(batch, storage.Record{Row: op.joinRow(rec.Row, s.Row, rec.LSN, s.LSN)})
					}
				}
				stored, err := op.tTbl.InsertBatch(batch, nil)
				n += int64(stored)
				if err != nil {
					werr = err
					return
				}
				tick(len(recs))
			})
		}
		mu.Lock()
		rows += n
		mu.Unlock()
		return werr
	}); err != nil {
		return rows, err
	}

	// S records no R record joined appear joined with rnull, one tick each.
	batch := make([]storage.Record, 0, op.tr.cfg.FuzzyChunk)
	flush := func() error {
		stored, err := op.tTbl.InsertBatch(batch, nil)
		rows += int64(stored)
		for i := 0; i < stored; i++ {
			tick(1)
		}
		batch = make([]storage.Record, 0, op.tr.cfg.FuzzyChunk)
		return err
	}
	for _, g := range sByJoin {
		if g.matched.Load() {
			continue
		}
		for _, s := range g.recs {
			batch = append(batch, storage.Record{Row: op.rowFromS(s.Row, s.LSN)})
			if len(batch) == cap(batch) {
				if err := flush(); err != nil {
					return rows, err
				}
			}
		}
	}
	return rows, flush()
}

// ---- log propagation (§4.2) ----

// Apply redoes one source-table log record onto T using the propagation
// rules. CLRs are dispatched by their compensating operation: the propagator
// replays them like regular operations.
func (op *fojOp) Apply(rec *wal.Record) error {
	if op.spec.ManyToMany {
		return op.applyM2M(rec)
	}
	switch rec.Table {
	case op.spec.Left:
		switch rec.OpType() {
		case wal.TypeInsert:
			op.tr.countRule(1)
			return op.rule1InsertR(rec, rec.Row)
		case wal.TypeDelete:
			op.tr.countRule(3)
			return op.rule3DeleteR(rec, rec.Key)
		case wal.TypeUpdate:
			if touchesAny(rec.Cols, op.rJoin) || touchesAny(rec.Cols, op.rDef.PrimaryKey) {
				op.tr.countRule(5)
				return op.rule5UpdateRJoin(rec)
			}
			op.tr.countRule(7)
			return op.rule7UpdateR(rec)
		}
	case op.spec.Right:
		switch rec.OpType() {
		case wal.TypeInsert:
			op.tr.countRule(2)
			return op.rule2InsertS(rec, rec.Row)
		case wal.TypeDelete:
			op.tr.countRule(4)
			return op.rule4DeleteS(rec, rec.Key)
		case wal.TypeUpdate:
			if touchesAny(rec.Cols, op.sJoin) || touchesAny(rec.Cols, op.sDef.PrimaryKey) {
				op.tr.countRule(6)
				return op.rule6UpdateSJoin(rec)
			}
			op.tr.countRule(7)
			return op.rule7UpdateS(rec)
		}
	}
	return nil
}

// rule1InsertR implements Rule 1 (Insert r^y_x into R).
func (op *fojOp) rule1InsertR(rec *wal.Record, rRow value.Tuple) error {
	y := rRow.Project(op.rDef.PrimaryKey)
	if existing := op.lookup(IndexRKey, y); len(existing) > 0 {
		// t^y exists in some state at least as new as the log record
		// (Theorem 1): ignore.
		return nil
	}
	x := rRow.Project(op.rJoin)
	group := op.lookup(IndexJoin, x)
	// If t^null_x is found, it is updated with r's attribute values.
	for _, t := range group {
		if !op.hasR(t) {
			merged := op.joinRow(rRow, op.sPartOf(t), rec.LSN, op.sLSNOf(t))
			return op.replaceRow(rec, t, merged)
		}
	}
	// If t^v_x is found, a new t^y_x is inserted joining r with its s part.
	for _, t := range group {
		if op.hasS(t) {
			return op.insertRow(rec, op.joinRow(rRow, op.sPartOf(t), rec.LSN, op.sLSNOf(t)))
		}
	}
	// No record with this join value: insert t^y_null.
	return op.insertRow(rec, op.rowFromR(rRow, rec.LSN))
}

// rule2InsertS implements Rule 2 (Insert s^x into S).
func (op *fojOp) rule2InsertS(rec *wal.Record, sRow value.Tuple) error {
	x := sRow.Project(op.sJoin)
	group := op.lookup(IndexJoin, x)
	if len(group) == 0 {
		// No join match: r^null ⋈ s^x must still appear (full outer join).
		return op.insertRow(rec, op.rowFromS(sRow, rec.LSN))
	}
	for _, t := range group {
		if op.hasS(t) && op.sStale(t, rec.LSN) {
			continue // carries s^x in a state at least as new: up to date
		}
		// Either joined with snull, or carrying an older incarnation of
		// s^x (the identity was deleted and re-inserted): take the values.
		var filled value.Tuple
		if op.hasR(t) {
			filled = op.joinRow(op.rPartOf(t), sRow, op.rLSNOf(t), rec.LSN)
		} else {
			filled = op.rowFromS(sRow, rec.LSN)
		}
		if err := op.replaceRow(rec, t, filled); err != nil {
			return err
		}
	}
	return nil
}

// rule3DeleteR implements Rule 3 (Delete r^y from R).
func (op *fojOp) rule3DeleteR(rec *wal.Record, y value.Tuple) error {
	rows := op.lookup(IndexRKey, y)
	if len(rows) == 0 {
		return nil // already gone: newer state
	}
	t := rows[0]
	if op.rStale(t, rec.LSN) {
		return nil // the R half already reflects a newer operation
	}
	if op.hasS(t) {
		// Preserve s^x if t was its only carrier.
		x := t.Project(op.joinT)
		carriers := 0
		for _, g := range op.lookup(IndexJoin, x) {
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
	return op.deleteRow(rec, t)
}

// rule4DeleteS implements Rule 4 (Delete s^x from S). The record is located
// by S's identifying attributes from the log record's key.
func (op *fojOp) rule4DeleteS(rec *wal.Record, sKey value.Tuple) error {
	for _, t := range op.lookup(op.sIdentityIndex(), sKey) {
		if !op.hasS(t) || op.sStale(t, rec.LSN) {
			continue
		}
		if !op.hasR(t) {
			if err := op.deleteRow(rec, t); err != nil {
				return err
			}
			continue
		}
		if err := op.replaceRow(rec, t, op.detachS(t, rec.LSN)); err != nil {
			return err
		}
	}
	return nil
}

// rule5UpdateRJoin implements Rule 5 (Update join attribute of r^y_x to z),
// generalized to cover primary-key updates of R as well: the T record moves
// from join group w to join group z while preserving full outer join on both
// sides.
func (op *fojOp) rule5UpdateRJoin(rec *wal.Record) error {
	rows := op.lookup(IndexRKey, rec.Key)
	if len(rows) == 0 {
		return nil // t^y gone: newer state (Theorem 1)
	}
	t := rows[0]
	if op.rStale(t, rec.LSN) {
		return nil
	}
	rNew := op.rPartOf(t)
	for i, c := range rec.Cols {
		rNew[c] = rec.New[i]
	}
	w := t.Project(op.joinT)
	z := rNew.Project(op.rJoin)
	newY := rNew.Project(op.rDef.PrimaryKey)

	if z.Equal(w) && newY.Equal(rec.Key) {
		// Neither the join value nor the key actually changed: plain update.
		return op.rule7UpdateR(rec)
	}

	// Detach: if t carried the only copy of s^w, preserve it as t^null_w.
	if op.hasS(t) {
		carriers := 0
		for _, g := range op.lookup(IndexJoin, w) {
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

	// Attach at z, exactly like inserting r^y_z (Rule 1's cases).
	group := op.lookup(IndexJoin, z)
	for _, g := range group {
		if !op.hasR(g) {
			return op.replaceRow(rec, g, op.joinRow(rNew, op.sPartOf(g), rec.LSN, op.sLSNOf(g)))
		}
	}
	for _, g := range group {
		if op.hasS(g) {
			return op.insertRow(rec, op.joinRow(rNew, op.sPartOf(g), rec.LSN, op.sLSNOf(g)))
		}
	}
	return op.insertRow(rec, op.rowFromR(rNew, rec.LSN))
}

// rule6UpdateSJoin implements Rule 6 (Update join attribute of s^x to z),
// operating as a delete of s^x followed by an insert of s^z, with the
// attribute values extracted from T.
func (op *fojOp) rule6UpdateSJoin(rec *wal.Record) error {
	group := op.lookup(op.sIdentityIndex(), rec.Key)
	// Only rows whose S half is older than this operation are affected;
	// newer rows already reflect it (or a later recycling of the identity).
	var affected []value.Tuple
	for _, t := range group {
		if op.hasS(t) && !op.sStale(t, rec.LSN) {
			affected = append(affected, t)
		}
	}
	if len(affected) == 0 {
		return nil
	}
	sOld := op.sPartOf(affected[0])
	sNew := sOld.Clone()
	for i, c := range rec.Cols {
		sNew[c] = rec.New[i]
	}

	// Delete side (Rule 4 on the old identity).
	for _, t := range affected {
		if !op.hasR(t) {
			if err := op.deleteRow(rec, t); err != nil {
				return err
			}
			continue
		}
		if err := op.replaceRow(rec, t, op.detachS(t, rec.LSN)); err != nil {
			return err
		}
	}

	// Insert side (Rule 2 with the new values).
	z := sNew.Project(op.sJoin)
	zGroup := op.lookup(IndexJoin, z)
	if len(zGroup) == 0 {
		return op.insertRow(rec, op.rowFromS(sNew, rec.LSN))
	}
	for _, t := range zGroup {
		if op.hasS(t) && op.sStale(t, rec.LSN) {
			continue
		}
		var filled value.Tuple
		if op.hasR(t) {
			filled = op.joinRow(op.rPartOf(t), sNew, op.rLSNOf(t), rec.LSN)
		} else {
			filled = op.rowFromS(sNew, rec.LSN)
		}
		if err := op.replaceRow(rec, t, filled); err != nil {
			return err
		}
	}
	return nil
}

// rule7UpdateR implements Rule 7 for R: update the R half of t^y in place.
func (op *fojOp) rule7UpdateR(rec *wal.Record) error {
	rows := op.lookup(IndexRKey, rec.Key)
	if len(rows) == 0 {
		return nil
	}
	cols := append(append([]int(nil), rec.Cols...), op.lsnR)
	vals := append(rec.New.Clone(), value.Int(int64(rec.LSN)))
	for _, t := range rows {
		if op.rStale(t, rec.LSN) {
			continue
		}
		key := op.tKey(t)
		op.tr.placeShadow(rec, op.spec.Target, key.Encode())
		if _, err := op.tTbl.Update(key, cols, vals, 0); err != nil {
			return err
		}
	}
	return nil
}

// rule7UpdateS implements Rule 7 for S: update the S half of every t^v_x.
func (op *fojOp) rule7UpdateS(rec *wal.Record) error {
	rows := op.lookup(op.sIdentityIndex(), rec.Key)
	if len(rows) == 0 {
		return nil
	}
	tCols := make([]int, len(rec.Cols))
	for i, c := range rec.Cols {
		tCols[i] = op.sToT[c]
	}
	tCols = append(tCols, op.lsnS)
	vals := append(rec.New.Clone(), value.Int(int64(rec.LSN)))
	for _, t := range rows {
		if !op.hasS(t) || op.sStale(t, rec.LSN) {
			continue
		}
		key := op.tKey(t)
		op.tr.placeShadow(rec, op.spec.Target, key.Encode())
		if _, err := op.tTbl.Update(key, tCols, vals, 0); err != nil {
			return err
		}
	}
	return nil
}

// MirrorKeys maps a locked source record to the T records carrying it
// (non-blocking commit lock mirroring).
func (op *fojOp) MirrorKeys(table string, key value.Tuple) []TargetKey {
	var rows []value.Tuple
	switch table {
	case op.spec.Left:
		rows = op.lookup(IndexRKey, key)
	case op.spec.Right:
		rows = op.lookup(op.sIdentityIndex(), key)
	default:
		return nil
	}
	out := make([]TargetKey, 0, len(rows))
	for _, t := range rows {
		out = append(out, TargetKey{Table: op.spec.Target, Key: op.tKey(t).Encode()})
	}
	return out
}

// ---- small helpers ----

func touchesAny(cols, among []int) bool {
	for _, c := range cols {
		for _, a := range among {
			if c == a {
				return true
			}
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsAll(set, subset []int) bool {
	for _, s := range subset {
		found := false
		for _, x := range set {
			if x == s {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
