package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/fault"
	"nbschema/internal/obs"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// The lifecycle transitions (lifecycle.go): a live abort and Recover share
// one abort, the switch is the point of no return, and a crash on either
// side of any transition's record recovers to what the transition table
// says.

// TestAbortBeforeSwitchReopensSources cancels a BlockingCommit
// transformation while it waits for a source lock holder. Its gate has
// already shut the sources; the abort must reopen them, not leave every new
// transaction denied.
func TestAbortBeforeSwitchReopensSources(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	rows := map[string]int{"R": db.Table("R").Len(), "S": db.Table("S").Len()}
	holder := db.Begin()
	if _, err := holder.Get("R", value.Tuple{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tr, _ := newJoinOp(t, db, Config{Strategy: BlockingCommit})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- tr.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _, _ := db.Catalog().StateOf("R")
		if st == catalog.StateDropping && tr.Phase() == PhaseSynchronizing {
			break // gated, waiting for the holder
		}
		if time.Now().After(deadline) {
			t.Fatalf("never gated: phase %v, R %v", tr.Phase(), st)
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := waitErr(t, done, 10*time.Second); !errors.Is(err, ErrAborted) {
		t.Fatalf("Run = %v, want ErrAborted", err)
	}
	if tr.Phase() != PhaseAborted {
		t.Errorf("phase = %v", tr.Phase())
	}
	for name, n := range rows {
		if st, _, err := db.Catalog().StateOf(name); err != nil || st != catalog.StatePublic {
			t.Errorf("%s state = %v, %v; want public", name, st, err)
		}
		if got := db.Table(name).Len(); got != n {
			t.Errorf("%s has %d rows, want %d", name, got, n)
		}
	}
	if db.Table("T") != nil {
		t.Error("target T survived the abort")
	}
	tx := db.Begin()
	if _, err := tx.Get("R", value.Tuple{value.Int(1)}); err != nil {
		t.Errorf("new transaction denied R: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortAfterSwitchFinishes aborts a non-blocking transformation in its
// drain, after a new transaction has committed an update to the published
// target. Past the switch an abort must not roll back: the old transaction
// is force-aborted, the drain completes and the transformation finishes with
// the new update in place.
func TestAbortAfterSwitchFinishes(t *testing.T) {
	for _, strategy := range []SyncStrategy{NonBlockingAbort, NonBlockingCommit} {
		t.Run(strategy.String(), func(t *testing.T) {
			db := newJoinDB(t)
			seedJoin(t, db)
			old := db.Begin()
			if _, err := old.Get("R", value.Tuple{value.Int(1)}); err != nil {
				t.Fatal(err)
			}

			var tr *Transformation
			var op *fojOp
			var want map[string]value.Tuple
			var newErr error
			// The sink runs on the transformation goroutine as the drain
			// begins: the switch is behind it and the sources are frozen.
			sink := obs.FuncSink(func(ev obs.Event) {
				if ev.Kind != obs.EventPhase || ev.Phase != PhaseDraining.String() {
					return
				}
				want = expectedFOJ(t, op)
				tx := db.Begin()
				newErr = tx.Update("T", value.Tuple{value.Int(3), value.Int(10)},
					[]string{"b"}, value.Tuple{value.Str("new")})
				if newErr == nil {
					newErr = tx.Commit()
				}
				tr.Abort()
			})
			tr, op = newJoinOp(t, db, Config{Strategy: strategy, Sink: sink})
			if err := waitErr(t, startRun(tr), 10*time.Second); err != nil {
				t.Fatalf("Run = %v, want nil", err)
			}
			if newErr != nil {
				t.Fatalf("new transaction on T: %v", newErr)
			}
			if tr.Phase() != PhaseDone {
				t.Errorf("phase = %v, want done", tr.Phase())
			}
			if err := old.Commit(); !errors.Is(err, engine.ErrTxnDone) {
				t.Errorf("old transaction commit = %v, want ErrTxnDone", err)
			}
			rows := op.lookup(IndexRKey, value.Tuple{value.Int(3)})
			if len(rows) != 1 || rows[0][1].AsString() != "new" {
				t.Errorf("T rows for a=3 = %v, want the new update", rows)
			}
			for _, src := range []string{"R", "S"} {
				if _, err := db.Catalog().Get(src); err == nil {
					t.Errorf("source %s not dropped", src)
				}
			}
			// T is the join of the sources as they stood at the switch, plus
			// the new transaction's update.
			for k, row := range want {
				if row[0].Equal(value.Int(3)) {
					row = row.Clone()
					row[1] = value.Str("new")
					want[k] = row
				}
			}
			assertImage(t, op, want)
		})
	}
}

// TestRecoverClosesOrphanedAttempt: the rollback logs done(aborted), so an
// attempt Recover has cleaned up is closed. A second Recover must find
// nothing to do and must not re-run it.
func TestRecoverClosesOrphanedAttempt(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	meta, err := json.Marshal(transformMeta{Kind: "foj", Join: &JoinSpec{
		Target: "T", Left: "R", Right: "S", On: [][2]string{{"c", "c"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	db.Log().Append(&wal.Record{Type: wal.TypeTransformStart, Meta: meta})

	rep, err := Recover(context.Background(), db, RecoverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Orphaned {
		t.Fatalf("unfinished attempt not reported: %+v", rep)
	}
	rep, err = Recover(context.Background(), db, RecoverConfig{
		Rerun: func(*engine.DB) (*Transformation, error) {
			t.Fatal("Recover re-ran an attempt it had already closed")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertRecoverNoop(t, rep)
}

// TestPrepareClashKeepsExistingTable: a target name that is already taken
// fails Prepare, and the abort must not drop the table that holds the name.
func TestPrepareClashKeepsExistingTable(t *testing.T) {
	db := newJoinDB(t)
	seedJoin(t, db)
	tr, err := NewSplit(db, SplitSpec{
		Source: "R", Left: "R2", Right: "S", SplitOn: []string{"c"}, RightOnly: []string{"b"},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded with a target name taken")
	}
	if got := db.Table("S"); got == nil || got.Len() != 2 {
		t.Fatal("the abort dropped the table that held the target name")
	}
	if db.Table("R2") != nil {
		t.Error("the hidden target R2 survived the abort")
	}
}

// crashStep is one cell of the lifecycle crash walk: a crash at a
// transition's fault point, and whether recovery must find the
// transformation finished (past the switch) or rolled back.
type crashStep struct {
	point    string
	strategy SyncStrategy
	fail     string // fault point failed first, to drive the run into abort
	finished bool
	orphaned bool // Recover has work left to do
}

func crashWalkSteps() []crashStep {
	return []crashStep{
		{"core.start.before", NonBlockingAbort, "", false, true},
		{"core.start.after", NonBlockingAbort, "", false, true},
		{"core.gate.before", BlockingCommit, "", false, true},
		{"core.gate.after", BlockingCommit, "", false, true},
		{"core.switch.before", NonBlockingAbort, "", false, true},
		{"core.switch.after", NonBlockingAbort, "", true, true},
		{"core.finish.before", NonBlockingAbort, "", true, true},
		{"core.finish.after", NonBlockingAbort, "", true, false},
		{"core.abort.before", NonBlockingAbort, "core.phase.synchronizing", false, true},
		{"core.abort.after", NonBlockingAbort, "core.phase.synchronizing", false, false},
		{"core.abort.before", BlockingCommit, "core.sync.latched", false, true},
		{"core.abort.after", BlockingCommit, "core.sync.latched", false, false},
	}
}

// TestLifecycleCrashWalk crashes every lifecycle transition just before and
// just after its record append, then restarts from the log and a checkpoint
// taken at the crash, which covers every record the crash left. Recover
// must leave the tables as the transition table says: rolled back before
// the switch, finished after it — and a second Recover must be a no-op.
func TestLifecycleCrashWalk(t *testing.T) {
	for _, c := range []struct {
		name string
		tc   tortureCase
	}{{"foj", fojTortureCase()}, {"split", splitTortureCase()}} {
		for _, s := range crashWalkSteps() {
			t.Run(c.name+"/"+s.strategy.String()+"/"+strings.TrimPrefix(s.point, "core."), func(t *testing.T) {
				runCrashWalk(t, c.tc, s)
			})
		}
	}
}

func runCrashWalk(t *testing.T, tc tortureCase, s crashStep) {
	cfg := tortureConfig()
	cfg.Strategy = s.strategy

	// Control: the same transformation run to completion, for the target
	// row counts a finished recovery must show.
	ctl := tc.newDB(t, tc.engineOpts(nil))
	tc.seed(t, ctl)
	ctr, err := tc.buildWith(ctl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]int)
	for _, name := range append(append([]string(nil), tc.sources...), tc.targets...) {
		rows[name] = ctl.Table(name).Len()
	}

	reg := fault.New()
	db := tc.newDB(t, tc.engineOpts(reg))
	tc.seed(t, db)
	tr, err := tc.buildWith(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.fail != "" {
		reg.Arm(s.fail, fault.OnHit(1), fault.ErrorAction(nil))
	}
	reg.Arm(s.point, fault.OnHit(1), fault.CrashAction())
	crashed := make(chan string, 1)
	go func() {
		defer func() {
			r := recover()
			c, ok := fault.AsCrash(r)
			if r != nil && !ok {
				panic(r)
			}
			crashed <- c.Point
		}()
		_ = tr.Run(context.Background())
	}()
	select {
	case p := <-crashed:
		if p != s.point {
			t.Fatalf("crashed at %q, armed %q", p, s.point)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("crash point %s never fired", s.point)
	}
	reg.Reset()

	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	if _, err := db.Log().WriteTo(&log); err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{LockTimeout: 150 * time.Millisecond}
	db2, _, err := engine.RestartFromSnapshot(harvestDefs(t, db),
		strings.NewReader(log.String()), bytes.NewReader(snap.Bytes()), opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}

	rep, err := Recover(context.Background(), db2, RecoverConfig{Targets: tc.targets})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Orphaned != s.orphaned || rep.FinishedSwitchover != (s.finished && s.orphaned) {
		t.Errorf("report = %+v, want orphaned %v", rep, s.orphaned)
	}
	for _, tgt := range tc.targets {
		st, _, err := db2.Catalog().StateOf(tgt)
		switch {
		case !s.finished && err == nil:
			t.Errorf("target %s survived the rollback (%v)", tgt, st)
		case s.finished && (err != nil || st != catalog.StatePublic):
			t.Errorf("target %s = %v, %v; want public", tgt, st, err)
		case s.finished && db2.Table(tgt).Len() != rows[tgt]:
			t.Errorf("target %s has %d rows, want %d", tgt, db2.Table(tgt).Len(), rows[tgt])
		}
	}
	// The config keeps the sources, so a finished attempt leaves them
	// retired in the dropping state and a rolled-back one reopens them.
	wantSrc := catalog.StatePublic
	if s.finished {
		wantSrc = catalog.StateDropping
	}
	for _, src := range tc.sources {
		if st, _, err := db2.Catalog().StateOf(src); err != nil || st != wantSrc {
			t.Errorf("source %s = %v, %v; want %v", src, st, err, wantSrc)
		}
		if got := db2.Table(src).Len(); got != rows[src] {
			t.Errorf("source %s has %d rows, want %d", src, got, rows[src])
		}
	}

	again, err := Recover(context.Background(), db2, RecoverConfig{Targets: tc.targets})
	if err != nil {
		t.Fatal(err)
	}
	assertRecoverNoop(t, again)
}
