package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbschema/internal/engine"
	"nbschema/internal/fault"
	"nbschema/internal/storage"
	"nbschema/internal/value"
)

// The per-row population the bulk build replaced, kept as the reference the
// bulk image is compared against: one Insert per initial-image row and, for
// the split, one Get+Insert/Update cycle on S per source row. It reads the
// sources through the same scanPartition (so fuzzy or snapshot, like the
// transformation it is given) and ticks at the same points.

func referencePopulateSplit(op *splitOp, tick func(int)) error {
	src := op.db.Table(op.spec.Source)
	for pi := 0; pi < src.Partitions(); pi++ {
		var werr error
		op.tr.scanPartition(src, pi, func(recs []storage.Record) {
			for _, rec := range recs {
				if werr != nil {
					return
				}
				if werr = op.rTbl.Insert(op.rPart(rec.Row), rec.LSN); werr != nil {
					return
				}
				werr = op.absorbS(nil, op.sPayload(rec.Row), rec.LSN)
			}
			tick(len(recs))
		})
		if werr != nil {
			return werr
		}
	}
	return nil
}

func referencePopulateFOJ(op *fojOp, tick func(int)) error {
	rTbl, sTbl := op.db.Table(op.spec.Left), op.db.Table(op.spec.Right)
	sByJoin := make(map[string][]storage.Record)
	for pi := 0; pi < sTbl.Partitions(); pi++ {
		op.tr.scanPartition(sTbl, pi, func(recs []storage.Record) {
			for _, rec := range recs {
				jk := rec.Row.Project(op.sJoin).Encode()
				if op.spec.ManyToMany {
					sByJoin[jk] = append(sByJoin[jk], rec)
				} else {
					sByJoin[jk] = []storage.Record{rec}
				}
			}
			tick(len(recs))
		})
	}
	matched := make(map[string]bool)
	for pi := 0; pi < rTbl.Partitions(); pi++ {
		var werr error
		op.tr.scanPartition(rTbl, pi, func(recs []storage.Record) {
			for _, rec := range recs {
				if werr != nil {
					return
				}
				jk := rec.Row.Project(op.rJoin).Encode()
				ss := sByJoin[jk]
				if len(ss) == 0 {
					werr = op.tTbl.Insert(op.rowFromR(rec.Row, rec.LSN), 0)
					continue
				}
				matched[jk] = true
				for _, s := range ss {
					if werr = op.tTbl.Insert(op.joinRow(rec.Row, s.Row, rec.LSN, s.LSN), 0); werr != nil {
						return
					}
				}
			}
			tick(len(recs))
		})
		if werr != nil {
			return werr
		}
	}
	for jk, ss := range sByJoin {
		if matched[jk] {
			continue
		}
		for _, s := range ss {
			if err := op.tTbl.Insert(op.rowFromS(s.Row, s.LSN), 0); err != nil {
				return err
			}
			tick(1)
		}
	}
	return nil
}

// image is a table's rows with their record LSNs.
type image map[string]storage.Record

func imageOf(tbl *storage.Table) image {
	out := make(image)
	for pi := 0; pi < tbl.Partitions(); pi++ {
		tbl.FuzzyScanPartition(pi, 0, func(recs []storage.Record) {
			for _, rec := range recs {
				out[rec.Key] = rec
			}
		})
	}
	return out
}

// sameImage compares two images row by row, LSNs included. On the rows loose
// selects, looseCols may differ: the payload of a split value whose
// contributors disagree is whichever was absorbed first — already
// interleaving-dependent for the per-row path.
func sameImage(t *testing.T, what string, got, want image, loose func(value.Tuple) bool, looseCols []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: bulk image has %d rows, per-row image %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: bulk image lacks %v", what, w.Row)
			continue
		}
		gr, wr := g.Row, w.Row
		if loose != nil && loose(wr) {
			gr, wr = gr.Clone(), wr.Clone()
			for _, c := range looseCols {
				gr[c], wr[c] = value.Null(), value.Null()
			}
		}
		if !gr.Equal(wr) || g.LSN != w.LSN {
			t.Errorf("%s: row %q: bulk %v @%d, per-row %v @%d", what, k, g.Row, g.LSN, w.Row, w.LSN)
		}
	}
}

// popCase is one cell of the equivalence matrix.
type popCase struct {
	workers int
	snap    bool
}

func popCases() []popCase {
	var out []popCase
	for _, w := range []int{1, 2, 8} {
		for _, s := range []bool{false, true} {
			out = append(out, popCase{w, s})
		}
	}
	return out
}

func (c popCase) String() string {
	return fmt.Sprintf("workers=%d/snapshot=%v", c.workers, c.snap)
}

// openPopView gives two transformations over the same sources the same
// population read view: with snap, one snapshot timestamp, so the racing
// history is invisible to both; without, plain fuzzy scans, which agree only
// once the history has stopped.
func openPopView(t *testing.T, db *engine.DB, snap bool, trs ...*Transformation) (done func()) {
	t.Helper()
	if !snap {
		return func() {}
	}
	view, err := db.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		tr.popSnapOn, tr.popTS = true, view.TS()
	}
	return func() { _ = view.Close() }
}

// race runs history while body runs when racing is set, otherwise before it.
func race(racing bool, history, body func()) {
	if !racing {
		history()
		body()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); history() }()
	body()
	wg.Wait()
}

// TestBulkSplitImageEqualsPerRowImage: for every worker count, read strategy
// and consistency-checker setting, the bulk-built R and S images equal the
// images the per-row population builds from the same read view — rows,
// counters, flags and LSNs — including a split value whose contributors
// disagree. Under a snapshot view the DML history races both populations;
// under fuzzy reads (whose result depends on timing by design) it runs to
// completion first.
func TestBulkSplitImageEqualsPerRowImage(t *testing.T) {
	for _, c := range popCases() {
		for _, cc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/cc=%v", c, cc), func(t *testing.T) {
				db := newSplitDBOpts(t, siOpts())
				seedSplit(t, db)
				mustExec(t, db, func(tx *engine.Txn) error { // zip 50 has two cities
					if err := tx.Insert("T", tRow(90, "eve", 50, "moss")); err != nil {
						return err
					}
					return tx.Insert("T", tRow(91, "ann", 50, "oslo"))
				})
				applySplitHistory(t, db, 7, 80)
				cfg := Config{PropagateWorkers: c.workers, CheckConsistency: cc, FuzzyChunk: 3}
				bulkTr, err := NewSplit(db, splitSpec(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				refSpec := splitSpec()
				refSpec.Left, refSpec.Right = "R_ref", "S_ref"
				refTr, err := NewSplit(db, refSpec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bulk, ref := bulkTr.op.(*splitOp), refTr.op.(*splitOp)
				if err := bulk.Prepare(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Prepare(); err != nil {
					t.Fatal(err)
				}
				defer openPopView(t, db, c.snap, bulkTr, refTr)()
				race(c.snap, func() { applySplitHistory(t, db, 11, 60) }, func() {
					if _, err := bulk.Populate(func(int) {}); err != nil {
						t.Fatalf("bulk populate: %v", err)
					}
					if err := referencePopulateSplit(ref, func(int) {}); err != nil {
						t.Fatalf("per-row populate: %v", err)
					}
				})
				sameImage(t, "R", imageOf(bulk.rTbl), imageOf(ref.rTbl), nil, nil)
				// Zip 50 is the contested value: its city is the first one
				// absorbed; counter, flag and LSN must still agree.
				contested := func(s value.Tuple) bool { return s[0].AsInt() == 50 }
				sameImage(t, "S", imageOf(bulk.sTbl), imageOf(ref.sTbl), contested, []int{1})
				if cc {
					s50, _, err := bulk.sTbl.Get(value.Tuple{value.Int(50)})
					if err != nil || s50[bulk.flagPos].AsBool() || bulk.cc.clean() || ref.cc.clean() {
						t.Errorf("contested value: S row %v (%v), bulk checker clean=%v, per-row checker clean=%v; want flag U and both unclean",
							s50, err, bulk.cc.clean(), ref.cc.clean())
					}
				}
			})
		}
	}
}

// TestBulkFOJImageEqualsPerRowImage is the same statement for the full outer
// join, one-to-many and many-to-many.
func TestBulkFOJImageEqualsPerRowImage(t *testing.T) {
	type foj struct {
		name    string
		open    func(*testing.T) *engine.DB
		spec    JoinSpec
		history func(*testing.T, *engine.DB, int64)
	}
	kinds := []foj{
		{"1:N", func(t *testing.T) *engine.DB {
			db := newJoinDBOpts(t, siOpts())
			seedJoin(t, db)
			return db
		}, JoinSpec{Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}}},
			func(t *testing.T, db *engine.DB, seed int64) { applyScript(t, db, seed, 60) }},
		{"M:N", func(t *testing.T) *engine.DB {
			db := newM2MDBOpts(t, siOpts())
			seedM2M(t, db)
			return db
		}, JoinSpec{Target: "T", Left: "R", Right: "S",
			On: [][2]string{{"course", "course"}}, ManyToMany: true},
			func(t *testing.T, db *engine.DB, seed int64) {
				for i := int64(0); i < 20; i++ {
					mustExec(t, db, func(tx *engine.Txn) error {
						if i%3 == 0 {
							return tx.Insert("S", teacher(100+seed*100+i, 100*(i%5), "t"))
						}
						return tx.Insert("R", student(100+seed*100+i, "s", 100*(i%6)))
					})
				}
			}},
	}
	for _, k := range kinds {
		for _, c := range popCases() {
			t.Run(fmt.Sprintf("%s/%v", k.name, c), func(t *testing.T) {
				db := k.open(t)
				k.history(t, db, 1)
				cfg := Config{PropagateWorkers: c.workers, FuzzyChunk: 3}
				bulkTr, err := NewFullOuterJoin(db, k.spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refSpec := k.spec
				refSpec.Target = "T_ref"
				refTr, err := NewFullOuterJoin(db, refSpec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bulk, ref := bulkTr.op.(*fojOp), refTr.op.(*fojOp)
				if err := bulk.Prepare(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Prepare(); err != nil {
					t.Fatal(err)
				}
				defer openPopView(t, db, c.snap, bulkTr, refTr)()
				race(c.snap, func() { k.history(t, db, 2) }, func() {
					if _, err := bulk.Populate(func(int) {}); err != nil {
						t.Fatalf("bulk populate: %v", err)
					}
					if err := referencePopulateFOJ(ref, func(int) {}); err != nil {
						t.Fatalf("per-row populate: %v", err)
					}
				})
				sameImage(t, "T", imageOf(bulk.tTbl), imageOf(ref.tTbl), nil, nil)
				for _, ix := range []string{IndexRKey, IndexJoin, IndexSKey} {
					if g, w := bulk.tTbl.IndexCount(ix), ref.tTbl.IndexCount(ix); g != w {
						t.Errorf("index %s: %d keys bulk-built, %d per row", ix, g, w)
					}
				}
			})
		}
	}
}

// TestBulkPopulationConvergesUnderRacingDML closes the gap the fuzzy arm of
// the image comparison leaves: with DML racing a fuzzy bulk population, the
// image is whatever the scan caught, and what must hold is that propagation
// repairs it to the source's projection — for each worker count, with and
// without the consistency checker.
func TestBulkPopulationConvergesUnderRacingDML(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, cc := range []bool{false, true} {
			db := newSplitDB(t)
			seedSplit(t, db)
			applySplitHistory(t, db, 3, 60)
			tr, op := newSplitOp(t, db, Config{PropagateWorkers: workers, CheckConsistency: cc, FuzzyChunk: 2})
			if err := op.Prepare(); err != nil {
				t.Fatal(err)
			}
			populateLive(t, tr, func() { applySplitHistory(t, db, 5, 80) })
			propagateAll(t, tr)
			assertSplitConverged(t, op)
		}
	}
}

// TestPopulateChunkFaultCadence: core.populate.chunk is hit once per tick, and
// the bulk build ticks exactly where the per-row population did — per scan
// chunk, and per unmatched S row at the end of a join.
func TestPopulateChunkFaultCadence(t *testing.T) {
	count := func(populate func(tick func(int)) error) (ticks int, rows int) {
		var mu sync.Mutex // the driver's tick serializes the workers too
		if err := populate(func(n int) { mu.Lock(); ticks++; rows += n; mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
		return ticks, rows
	}
	db := newSplitDB(t)
	seedSplit(t, db)
	applySplitHistory(t, db, 9, 60)
	bulkTr, _ := NewSplit(db, splitSpec(), Config{FuzzyChunk: 3, PropagateWorkers: 2})
	refSpec := splitSpec()
	refSpec.Left, refSpec.Right = "R_ref", "S_ref"
	refTr, _ := NewSplit(db, refSpec, Config{FuzzyChunk: 3})
	bulk, ref := bulkTr.op.(*splitOp), refTr.op.(*splitOp)
	if err := bulk.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Prepare(); err != nil {
		t.Fatal(err)
	}
	bt, br := count(func(tick func(int)) error { _, err := bulk.Populate(tick); return err })
	rt, rr := count(func(tick func(int)) error { return referencePopulateSplit(ref, tick) })
	if bt != rt || br != rr {
		t.Errorf("split: bulk ticked %d times for %d rows, per-row %d times for %d rows", bt, br, rt, rr)
	}

	jdb := newJoinDB(t)
	seedJoin(t, jdb)
	applyScript(t, jdb, 9, 60)
	jBulkTr, _ := NewFullOuterJoin(jdb, JoinSpec{Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}}},
		Config{FuzzyChunk: 3, PropagateWorkers: 2})
	jRefTr, _ := NewFullOuterJoin(jdb, JoinSpec{Target: "T_ref", Left: "R", Right: "S", On: [][2]string{{"c", "c"}}},
		Config{FuzzyChunk: 3})
	jBulk, jRef := jBulkTr.op.(*fojOp), jRefTr.op.(*fojOp)
	if err := jBulk.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := jRef.Prepare(); err != nil {
		t.Fatal(err)
	}
	bt, br = count(func(tick func(int)) error { _, err := jBulk.Populate(tick); return err })
	rt, rr = count(func(tick func(int)) error { return referencePopulateFOJ(jRef, tick) })
	if bt != rt || br != rr {
		t.Errorf("join: bulk ticked %d times for %d rows, per-row %d times for %d rows", bt, br, rt, rr)
	}

	// Through the real driver the fault point fires at that cadence: armed on
	// its third hit, the run fails having hit it exactly three times.
	reg := fault.New()
	fdb := newSplitDBOpts(t, engine.Options{LockTimeout: 150 * time.Millisecond, Faults: reg})
	seedSplit(t, fdb)
	tr, err := NewSplit(fdb, splitSpec(), Config{FuzzyChunk: 1, PropagateWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg.Arm("core.populate.chunk", fault.OnHit(3), fault.ErrorAction(nil))
	if err := tr.Run(context.Background()); err == nil {
		t.Fatal("run survived the injected chunk fault")
	}
	if hits := reg.Hits("core.populate.chunk"); hits != 3 {
		t.Errorf("core.populate.chunk hit %d times before the run failed, want 3", hits)
	}
}

// TestWorkerPanicReachesRunGoroutine pins ROADMAP item 0: a crash action
// firing on a population or propagation worker is re-raised on the goroutine
// that called Run — the only place a harness can recover it — and any other
// panic aborts the transformation with an error instead of killing the
// process.
func TestWorkerPanicReachesRunGoroutine(t *testing.T) {
	run := func(point string, act fault.Action) (crash any, err error) {
		reg := fault.New()
		db := newSplitDBOpts(t, engine.Options{LockTimeout: 150 * time.Millisecond, Faults: reg})
		seedSplit(t, db)
		applySplitHistory(t, db, 1, 60)
		tr, nerr := NewSplit(db, splitSpec(), Config{PropagateWorkers: 4, FuzzyChunk: 1})
		if nerr != nil {
			t.Fatal(nerr)
		}
		reg.Arm(point, fault.OnHit(2), act)
		defer func() { crash = recover() }()
		return nil, tr.Run(context.Background())
	}
	for _, point := range []string{"core.populate.chunk", "storage.insert.R"} {
		crash, err := run(point, fault.CrashAction())
		if c, ok := fault.AsCrash(crash); !ok || c.Point != point {
			t.Errorf("%s: recovered %v (run error %v), want the injected crash", point, crash, err)
		}
		crash, err = run(point, func(string, int64) error { panic("boom") })
		if crash != nil || err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
			t.Errorf("%s: a plain worker panic gave crash=%v err=%v, want an abort naming it", point, crash, err)
		}
	}

	var stop atomic.Bool
	err := runWorkers(3, &stop, func(w int) error {
		if w == 1 {
			panic("worker bug")
		}
		return nil
	})
	if err == nil || !stop.Load() {
		t.Errorf("runWorkers: err=%v stop=%v after a worker panic", err, stop.Load())
	}
}

// TestBulkPopulationRacesFuzzyCheckpoint (run with -race): checkpoints scan
// the hidden targets fuzzily while several workers bulk-build them; the
// checkpoints must complete, and the restored database must redo to the same
// sources.
func TestBulkPopulationRacesFuzzyCheckpoint(t *testing.T) {
	db := newSplitDB(t)
	mustExec(t, db, func(tx *engine.Txn) error {
		for i := int64(0); i < 400; i++ {
			if err := tx.Insert("T", tRow(i, "n", 50+i%7, splitCities[50])); err != nil {
				return err
			}
		}
		return nil
	})
	tr, op := newSplitOp(t, db, Config{PropagateWorkers: 4, FuzzyChunk: 8})
	if err := op.Prepare(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var snaps int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if _, err := db.Checkpoint(&buf); err != nil {
				t.Errorf("checkpoint during bulk population: %v", err)
				return
			}
			snaps++
		}
	}()
	for i := 0; i < 20; i++ {
		if err := tr.populate(context.Background()); err != nil {
			t.Fatalf("populate: %v", err)
		}
		if got := op.rTbl.Len(); got != 400 {
			t.Fatalf("R has %d rows after population, want 400", got)
		}
		// Empty the targets for the next round, racing the checkpointer too.
		for _, tbl := range []*storage.Table{op.rTbl, op.sTbl} {
			for k, rec := range imageOf(tbl) {
				if _, err := tbl.Delete(tbl.Def().KeyOf(rec.Row)); err != nil {
					t.Fatalf("delete %q: %v", k, err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if snaps == 0 {
		t.Error("no checkpoint completed while population ran")
	}
}
