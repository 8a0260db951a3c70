package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/fault"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Crash torture: run a live transformation under a closed-loop workload,
// crash it at an injected fault point (the crash is a panic caught at the
// process-simulation boundary), restart from the serialized WAL — with a
// torn tail appended, as a real crash mid-append would leave — and assert
// the paper's recovery invariant (§6): sources intact and equal to a
// never-transformed database, losers rolled back, targets absent after
// core.Recover, and a re-run of the transformation converging.
//
// Crash points must only fire on the transformation's goroutine, i.e.
// core.* points or storage points qualified by a hidden target table.
// Specs that crash inside the synchronization latch window run quiesced
// (no workload): an in-process "crash" never releases held latches, so a
// live workload would block forever against them.

type crashSpec struct {
	name  string
	point string
	hit   int64
	load  bool
}

// tortureCase abstracts over the FOJ and split transformations.
type tortureCase struct {
	sources    []string
	targets    []string
	newDB      func(t *testing.T, o engine.Options) *engine.DB
	seed       func(t *testing.T, db *engine.DB)
	buildWith  func(db *engine.DB, cfg Config) (*Transformation, error)
	loadOp     func(tx *engine.Txn, rng *rand.Rand, i int) error
	sourceDefs func(t *testing.T) []*catalog.TableDef
	converged  func(t *testing.T, tr *Transformation)
	// si runs the whole scenario with MVCC snapshot reads enabled — crashing
	// process, restarted process, and control alike — with snapshot-based
	// initial population and lock-free snapshot readers racing the crash.
	si bool
}

// engineOpts are the crashing process's engine options for this case.
func (tc tortureCase) engineOpts(reg *fault.Registry) engine.Options {
	return engine.Options{LockTimeout: 150 * time.Millisecond, Faults: reg, SnapshotReads: tc.si}
}

func tortureConfig() Config {
	return Config{
		KeepSources:      true,
		BatchSize:        4,
		FuzzyChunk:       2,
		SyncLatchTimeout: 20 * time.Millisecond,
	}
}

func fojTortureCase() tortureCase {
	return tortureCase{
		sources: []string{"R", "S"},
		targets: []string{"T"},
		newDB: func(t *testing.T, o engine.Options) *engine.DB {
			db := engine.New(o)
			for _, def := range joinDefs(t) {
				if err := db.CreateTable(def); err != nil {
					t.Fatal(err)
				}
			}
			return db
		},
		seed: func(t *testing.T, db *engine.DB) {
			mustExec(t, db, func(tx *engine.Txn) error {
				for i := int64(0); i < 40; i++ {
					if err := tx.Insert("R", rRow(i, "seed", i%7)); err != nil {
						return err
					}
				}
				for i := int64(0); i < 7; i++ {
					if err := tx.Insert("S", sRowV(i, "city")); err != nil {
						return err
					}
				}
				return nil
			})
		},
		buildWith: func(db *engine.DB, cfg Config) (*Transformation, error) {
			return NewFullOuterJoin(db, JoinSpec{
				Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}},
			}, cfg)
		},
		loadOp: func(tx *engine.Txn, rng *rand.Rand, i int) error {
			switch rng.Intn(4) {
			case 0:
				return tx.Insert("R", rRow(1000+int64(i)*7+rng.Int63n(7), "live", rng.Int63n(7)))
			case 1:
				return tx.Update("R", value.Tuple{value.Int(rng.Int63n(40))},
					[]string{"b"}, value.Tuple{value.Str("upd")})
			case 2:
				return tx.Update("S", value.Tuple{value.Int(rng.Int63n(7))},
					[]string{"d"}, value.Tuple{value.Str("town")})
			default:
				return tx.Delete("R", value.Tuple{value.Int(rng.Int63n(40))})
			}
		},
		sourceDefs: joinDefs,
		converged: func(t *testing.T, tr *Transformation) {
			assertConverged(t, tr.op.(*fojOp))
		},
	}
}

func splitTortureDefs(t *testing.T) []*catalog.TableDef {
	t.Helper()
	def, err := catalog.NewTableDef("T", []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString, Nullable: true},
		{Name: "zip", Type: value.KindInt},
		{Name: "city", Type: value.KindString, Nullable: true},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return []*catalog.TableDef{def}
}

func splitTortureCase() tortureCase {
	return tortureCase{
		sources: []string{"T"},
		targets: []string{"R", "S"},
		newDB: func(t *testing.T, o engine.Options) *engine.DB {
			db := engine.New(o)
			for _, def := range splitTortureDefs(t) {
				if err := db.CreateTable(def); err != nil {
					t.Fatal(err)
				}
			}
			return db
		},
		seed: func(t *testing.T, db *engine.DB) {
			mustExec(t, db, func(tx *engine.Txn) error {
				for i := int64(0); i < 40; i++ {
					if err := tx.Insert("T", tRow(i, "seed", 7000+i%5, "city")); err != nil {
						return err
					}
				}
				return nil
			})
		},
		buildWith: func(db *engine.DB, cfg Config) (*Transformation, error) {
			return NewSplit(db, splitSpec(), cfg)
		},
		loadOp: func(tx *engine.Txn, rng *rand.Rand, i int) error {
			switch rng.Intn(4) {
			case 0:
				return tx.Insert("T", tRow(1000+int64(i)*7+rng.Int63n(7), "live", 7000+rng.Int63n(5), "city"))
			case 1:
				return tx.Update("T", value.Tuple{value.Int(rng.Int63n(40))},
					[]string{"name"}, value.Tuple{value.Str("upd")})
			case 2:
				return tx.Update("T", value.Tuple{value.Int(rng.Int63n(40))},
					[]string{"zip", "city"}, value.Tuple{value.Int(7000 + rng.Int63n(5)), value.Str("city")})
			default:
				return tx.Delete("T", value.Tuple{value.Int(rng.Int63n(40))})
			}
		},
		sourceDefs: splitTortureDefs,
		converged: func(t *testing.T, tr *Transformation) {
			assertSplitConverged(t, tr.op.(*splitOp))
		},
	}
}

// startLoad runs a small closed-loop workload until stop is closed. Errors
// (lock timeouts, doomed transactions, tables switched away mid-run) abort
// the transaction and continue — a real client's retry loop.
func startLoad(db *engine.DB, op func(tx *engine.Txn, rng *rand.Rand, i int) error, seed int64) (stop func(), wait func(time.Duration) bool) {
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				tx := db.Begin()
				if err := op(tx, rng, i); err != nil {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
				// Pace the load so propagation can catch up and the
				// analyzer actually reaches synchronization.
				time.Sleep(50 * time.Microsecond)
			}
		}(seed + int64(w))
	}
	done := make(chan struct{})
	var once sync.Once
	return func() { close(stopCh) }, func(d time.Duration) bool {
		once.Do(func() {
			go func() { wg.Wait(); close(done) }()
		})
		select {
		case <-done:
			return true
		case <-time.After(d):
			return false
		}
	}
}

// startSnapshotLoad runs two lock-free snapshot readers over the source
// tables until stop is called. They never hold locks, so unlike the update
// load they cannot deadlock against the transformation — but a reader caught
// behind a latch the crashed process still holds may wedge, so stop does not
// wait for them (mirroring the update load's crash-held-latch escape hatch).
func startSnapshotLoad(db *engine.DB, sources []string) (stop func()) {
	stopCh := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				snap, err := db.BeginSnapshot()
				if err != nil {
					return
				}
				for _, src := range sources {
					n := 0
					_ = snap.Scan(src, func(value.Tuple) bool {
						n++
						return n < 16
					})
				}
				_ = snap.Close()
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	return func() { close(stopCh) }
}

// tornSuffix returns the first half of one serialized WAL frame — the bytes
// a crash mid-append leaves at the end of the file.
func tornSuffix(t *testing.T) string {
	t.Helper()
	l := wal.NewLog()
	l.Append(&wal.Record{Type: wal.TypeFuzzyMark})
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	return s[:len(s)/2]
}

// harvestDefs clones every table definition in the catalog, preserving
// lifecycle states — the schema a restarted process would reload.
func harvestDefs(t *testing.T, db *engine.DB) []*catalog.TableDef {
	t.Helper()
	var defs []*catalog.TableDef
	for _, name := range db.Catalog().List() {
		def, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def.Clone())
	}
	return defs
}

// runCrashTorture is the process-simulation harness for one seeded crash.
func runCrashTorture(t *testing.T, tc tortureCase, spec crashSpec) {
	reg := fault.New()
	db := tc.newDB(t, tc.engineOpts(reg))
	tc.seed(t, db)

	cfg := tortureConfig()
	cfg.SnapshotPopulate = tc.si
	tr, err := tc.buildWith(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var stop func()
	var wait func(time.Duration) bool
	if spec.load {
		stop, wait = startLoad(db, tc.loadOp, 0x5eed)
		// Let the workload open transactions and append log records so the
		// transformation starts with real concurrent traffic.
		time.Sleep(5 * time.Millisecond)
	}
	var stopSnap func()
	if tc.si && spec.load {
		stopSnap = startSnapshotLoad(db, tc.sources)
	}

	reg.Arm(spec.point, fault.OnHit(spec.hit), fault.CrashAction())
	if spec.load && spec.point != "core.phase.propagating" {
		// Give the workload time to log records before the first propagation
		// cycle, so that cycle is busy and ends with a fuzzy mark.
		reg.Arm("core.phase.propagating", fault.OnHit(1), fault.SleepAction(2*time.Millisecond))
	}

	// Process-simulation boundary: the transformation goroutine "is" the
	// crashing process; the injected panic is caught here and nowhere else.
	type outcome struct {
		c   fault.Crash
		err error
	}
	crashed := make(chan outcome, 1)
	go func() {
		var runErr error
		defer func() {
			if r := recover(); r != nil {
				c, ok := fault.AsCrash(r)
				if !ok {
					panic(r)
				}
				crashed <- outcome{c: c}
				return
			}
			crashed <- outcome{err: runErr}
		}()
		runErr = tr.Run(context.Background())
	}()

	var o outcome
	select {
	case o = <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatalf("crash point %s (hit %d) never fired", spec.point, spec.hit)
	}
	if o.c.Point != spec.point {
		t.Fatalf("crashed at %q, armed %q (run error: %v)", o.c.Point, spec.point, o.err)
	}

	if spec.load {
		stop()
		if !wait(5 * time.Second) {
			// A goroutine is wedged on a latch the dead transformation still
			// holds; it can no longer write, so harvesting is safe.
			t.Logf("workload left blocked behind crash-held latches")
		}
	}
	if stopSnap != nil {
		stopSnap()
	}
	reg.Reset()

	// The surviving state of the crashed process is its WAL. Serialize it
	// and append a torn half-frame, as a crash mid-append would.
	var buf strings.Builder
	if _, err := db.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()

	// Restart with the full schema (sources + orphaned targets), lenient.
	opts := engine.Options{LockTimeout: 150 * time.Millisecond, LenientWAL: true, SnapshotReads: tc.si}
	db2, cut, err := engine.RestartFrom(harvestDefs(t, db), strings.NewReader(dump+tornSuffix(t)), opts)
	if err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	if cut == nil || !cut.Torn() {
		t.Fatalf("lenient restart did not report the torn tail: %+v", cut)
	}
	if n := db2.ActiveCount(); n != 0 {
		t.Fatalf("%d loser transactions still active after restart", n)
	}

	// Recover drops the orphaned targets and reverts half-switched sources.
	rep, err := Recover(context.Background(), db2, RecoverConfig{Targets: tc.targets})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.Orphaned {
		t.Fatal("Recover did not detect the orphaned transformation")
	}
	for _, tgt := range tc.targets {
		if db2.Table(tgt) != nil {
			t.Fatalf("target %s still present after Recover", tgt)
		}
	}
	for _, src := range tc.sources {
		def, err := db2.Catalog().Get(src)
		if err != nil {
			t.Fatalf("source %s lost: %v", src, err)
		}
		if def.State != catalog.StatePublic {
			t.Fatalf("source %s not public after Recover: state %v", src, def.State)
		}
	}

	// A never-transformed control: restart the same log into the source
	// schema only. The recovered sources must match it exactly.
	db3, _, err := engine.RestartFrom(tc.sourceDefs(t), strings.NewReader(dump), opts)
	if err != nil {
		t.Fatalf("control restart: %v", err)
	}
	for _, src := range tc.sources {
		got := db2.Table(src).Rows()
		want := db3.Table(src).Rows()
		if len(got) != len(want) {
			t.Fatalf("source %s: %d rows after recovery, control has %d", src, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok || !g.Equal(w) {
				t.Fatalf("source %s row %q diverged: got %v want %v", src, k, g, w)
			}
		}
	}

	// Re-running the transformation on the recovered database converges.
	tr2, err := tc.buildWith(db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Run(context.Background()); err != nil {
		t.Fatalf("re-run after recovery: %v", err)
	}
	tc.converged(t, tr2)
}

func fojCrashSpecs() []crashSpec {
	return []crashSpec{
		{"populate-phase-entry", "core.phase.populating", 1, true},
		{"populate-chunk-1", "core.populate.chunk", 1, true},
		{"populate-chunk-2", "core.populate.chunk", 2, true},
		{"populate-chunk-9", "core.populate.chunk", 9, true},
		{"populate-fuzzymark", "core.fuzzymark", 1, true},
		{"populate-target-insert-1", "storage.insert.T", 1, true},
		{"populate-target-insert-5", "storage.insert.T", 5, true},
		{"populate-wal-append", "wal.append", 1, false},
		{"propagate-phase-entry", "core.phase.propagating", 1, true},
		{"propagate-batch", "core.propagate.batch", 1, true},
		{"propagate-fuzzymark", "core.fuzzymark", 2, true},
		{"sync-phase-entry", "core.phase.synchronizing", 1, true},
		{"sync-entry", "core.sync.entry", 1, true},
		{"sync-latched", "core.sync.latched", 1, false},
		{"sync-published", "core.switch.after", 1, false},
	}
}

func splitCrashSpecs() []crashSpec {
	return []crashSpec{
		{"populate-chunk-1", "core.populate.chunk", 1, true},
		{"populate-chunk-4", "core.populate.chunk", 4, true},
		{"populate-fuzzymark", "core.fuzzymark", 1, true},
		{"populate-target-insert", "storage.insert.R", 1, true},
		{"propagate-batch", "core.propagate.batch", 1, true},
		{"sync-phase-entry", "core.phase.synchronizing", 1, true},
		{"sync-entry", "core.sync.entry", 1, true},
		{"sync-latched", "core.sync.latched", 1, false},
		{"sync-published", "core.switch.after", 1, false},
	}
}

// reduceSpecs keeps one spec per crash point in -short mode: the dedicated
// race CI job re-runs the torture under the race detector, where the full
// matrix is needlessly slow and crash-point coverage is what matters.
func reduceSpecs(specs []crashSpec) []crashSpec {
	if !testing.Short() {
		return specs
	}
	seen := map[string]bool{}
	var out []crashSpec
	for _, s := range specs {
		if seen[s.point] {
			continue
		}
		seen[s.point] = true
		out = append(out, s)
	}
	return out
}

func TestCrashTortureFOJ(t *testing.T) {
	for _, spec := range reduceSpecs(fojCrashSpecs()) {
		t.Run(spec.name, func(t *testing.T) {
			runCrashTorture(t, fojTortureCase(), spec)
		})
	}
}

func TestCrashTortureSplit(t *testing.T) {
	for _, spec := range reduceSpecs(splitCrashSpecs()) {
		t.Run(spec.name, func(t *testing.T) {
			runCrashTorture(t, splitTortureCase(), spec)
		})
	}
}

// The SI arms run the same crash matrix with MVCC snapshot reads enabled end
// to end: snapshot-based initial population, snapshot readers racing the
// crash, and first-committer-wins conflicts in the load — recovery must hold
// with version chains in play exactly as it does under plain 2PL.
func TestCrashTortureFOJSI(t *testing.T) {
	tc := fojTortureCase()
	tc.si = true
	for _, spec := range reduceSpecs(fojCrashSpecs()) {
		t.Run(spec.name, func(t *testing.T) {
			runCrashTorture(t, tc, spec)
		})
	}
}

func TestCrashTortureSplitSI(t *testing.T) {
	tc := splitTortureCase()
	tc.si = true
	for _, spec := range reduceSpecs(splitCrashSpecs()) {
		t.Run(spec.name, func(t *testing.T) {
			runCrashTorture(t, tc, spec)
		})
	}
}

// TestRecoverCleanDatabase checks Recover is a no-op when nothing crashed.
func TestRecoverCleanDatabase(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	rep, err := Recover(context.Background(), db, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphaned || len(rep.DroppedTargets) != 0 || len(rep.ReopenedSources) != 0 || rep.Rerun {
		t.Fatalf("clean database produced non-empty report: %+v", rep)
	}
}

// TestRecoverReopensDroppingSource checks the half-switched-source path:
// a source caught in the dropping state is reverted to public use.
func TestRecoverReopensDroppingSource(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	hidden, err := catalog.NewTableDef("T_new", []catalog.Column{
		{Name: "a", Type: value.KindInt},
	}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	hidden.State = catalog.StateHidden
	if err := db.CreateTable(hidden); err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().SetState(catalog.StateChange{Name: "R", State: catalog.StateDropping, DropAt: db.Log().End()}); err != nil {
		t.Fatal(err)
	}

	rep, err := Recover(context.Background(), db, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Orphaned {
		t.Fatal("orphaned state not detected")
	}
	if len(rep.DroppedTargets) != 1 || rep.DroppedTargets[0] != "T_new" {
		t.Errorf("DroppedTargets = %v", rep.DroppedTargets)
	}
	if len(rep.ReopenedSources) != 1 || rep.ReopenedSources[0] != "R" {
		t.Errorf("ReopenedSources = %v", rep.ReopenedSources)
	}
	def, err := db.Catalog().Get("R")
	if err != nil || def.State != catalog.StatePublic {
		t.Errorf("R not public after Recover: %v, %v", def, err)
	}
	// R accepts writes again.
	mustExec(t, db, func(tx *engine.Txn) error {
		return tx.Insert("R", rRow(99, "back", 1))
	})
}

// TestRecoverRerun checks the optional re-run path end to end.
func TestRecoverRerun(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	// Leave half-prepared targets behind, as a crash would.
	tr, _ := prepared(t, db, Config{})
	_ = tr

	rep, err := Recover(context.Background(), db, RecoverConfig{
		Targets: []string{"T"},
		Rerun: func(db *engine.DB) (*Transformation, error) {
			return NewFullOuterJoin(db, JoinSpec{
				Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}},
			}, Config{KeepSources: true})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rerun || rep.Transformation == nil {
		t.Fatalf("re-run did not happen: %+v", rep)
	}
	assertConverged(t, rep.Transformation.op.(*fojOp))
}
