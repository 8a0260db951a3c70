package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"nbschema/internal/engine"
	"nbschema/internal/fault"
)

// Checkpoint torture: crashes that involve a fuzzy checkpoint. A checkpoint
// taken mid-transformation does not write the hidden targets, so restarting
// from it leaves nothing to resume; recovery is the paper's drop-and-rerun
// (§6), and it must still notice the unfinished attempt.

// TestCrashTortureCheckpointRerunFOJ and its split twin crash a
// transformation mid-propagation after a checkpoint, restart from checkpoint
// plus log suffix, and check that Recover reports the attempt orphaned from
// its lifecycle records alone (no hidden table survives to find) and re-runs
// it to a converged image.
func TestCrashTortureCheckpointRerunFOJ(t *testing.T) {
	runCheckpointRerunTorture(t, fojTortureCase(), 0)
	runCheckpointRerunTorture(t, fojTortureCase(), 8)
}

func TestCrashTortureCheckpointRerunSplit(t *testing.T) {
	runCheckpointRerunTorture(t, splitTortureCase(), 0)
	runCheckpointRerunTorture(t, splitTortureCase(), 8)
}

func runCheckpointRerunTorture(t *testing.T, tc tortureCase, workers int) {
	reg := fault.New()
	db := tc.newDB(t, tc.engineOpts(reg))
	tc.seed(t, db)

	// The first run never synchronizes, so the crash point is sure to fire
	// mid-propagation rather than racing synchronization.
	cfg := tortureConfig()
	cfg.Analyzer = func(Analysis) bool { return false }
	tr, err := tc.buildWith(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop, wait := startLoad(db, tc.loadOp, 0x5eed)
	crashed := make(chan fault.Crash, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				c, ok := fault.AsCrash(r)
				if !ok {
					panic(r)
				}
				crashed <- c
			}
		}()
		_ = tr.Run(context.Background())
	}()

	deadline := time.Now().Add(10 * time.Second)
	for tr.Phase() != PhasePropagating || tr.Progress().Iteration < 2 {
		if time.Now().After(deadline) {
			t.Fatal("transformation never reached steady propagation")
		}
		time.Sleep(time.Millisecond)
	}
	var snap bytes.Buffer
	if _, err := db.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	reg.Arm("core.propagate.batch", fault.OnHit(1), fault.CrashAction())
	select {
	case c := <-crashed:
		if c.Point != "core.propagate.batch" {
			t.Fatalf("crashed at %q", c.Point)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("crash point never fired")
	}
	stop()
	if !wait(5 * time.Second) {
		t.Log("workload left blocked behind crash-held latches")
	}
	reg.Reset()

	var buf strings.Builder
	if _, err := db.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{LockTimeout: 150 * time.Millisecond, LenientWAL: true}
	db2, _, err := engine.RestartFromSnapshot(tc.sourceDefs(t),
		strings.NewReader(buf.String()+tornSuffix(t)), bytes.NewReader(snap.Bytes()), opts)
	if err != nil {
		t.Fatalf("restart with checkpoint: %v", err)
	}
	if db2.RestoredCheckpoint() == nil {
		t.Fatal("checkpoint not restored")
	}
	for _, tgt := range tc.targets {
		if db2.Table(tgt) != nil {
			t.Fatalf("hidden target %s restored from the checkpoint", tgt)
		}
	}

	rerunCfg := tortureConfig()
	rerunCfg.PropagateWorkers = workers
	rep, err := Recover(context.Background(), db2, RecoverConfig{
		Targets: tc.targets,
		Rerun:   func(db *engine.DB) (*Transformation, error) { return tc.buildWith(db, rerunCfg) },
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.Orphaned || !rep.Rerun || rep.Transformation == nil {
		t.Fatalf("unfinished attempt not re-run: %+v", rep)
	}
	if got := rep.Transformation.Phase(); got != PhaseDone {
		t.Fatalf("re-run phase = %v", got)
	}
	tc.converged(t, rep.Transformation)
}

// TestCrashTortureCheckpointMidSnapshot crashes the checkpointing goroutine
// between partition writes while a workload runs: the truncated snapshot
// must be rejected at restart and recovery falls back to full replay,
// converging row-for-row with a control restart.
func TestCrashTortureCheckpointMidSnapshot(t *testing.T) {
	runCheckpointCrashTorture(t, "storage.snapshot.partition", 3)
}

// TestCrashTortureCheckpointTornEnd crashes between the checkpoint-begin and
// checkpoint-end records: the log keeps an unmatched begin and the snapshot
// footer is never sealed; restart must ignore the checkpoint entirely.
func TestCrashTortureCheckpointTornEnd(t *testing.T) {
	runCheckpointCrashTorture(t, "engine.checkpoint.end", 1)
}

func runCheckpointCrashTorture(t *testing.T, point string, hit int64) {
	tc := fojTortureCase()
	reg := fault.New()
	db := tc.newDB(t, tc.engineOpts(reg))
	tc.seed(t, db)
	stop, wait := startLoad(db, tc.loadOp, 0xc4a5)
	time.Sleep(5 * time.Millisecond)

	reg.Arm(point, fault.OnHit(hit), fault.CrashAction())
	var snap bytes.Buffer
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("checkpoint did not crash at %s", point)
			}
			if c, ok := fault.AsCrash(r); !ok || c.Point != point {
				panic(r)
			}
		}()
		_, _ = db.Checkpoint(&snap)
	}()
	stop()
	if !wait(5 * time.Second) {
		t.Fatal("workload did not stop")
	}
	reg.Reset()

	var buf strings.Builder
	if _, err := db.Log().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String() + tornSuffix(t)
	opts := engine.Options{LockTimeout: 150 * time.Millisecond, LenientWAL: true}

	db2, _, err := engine.RestartFromSnapshot(tc.sourceDefs(t), strings.NewReader(dump), bytes.NewReader(snap.Bytes()), opts)
	if err != nil {
		t.Fatalf("restart with crashed checkpoint: %v", err)
	}
	if db2.RestoredCheckpoint() != nil {
		t.Fatal("crashed checkpoint was accepted")
	}

	db3, _, err := engine.RestartFrom(tc.sourceDefs(t), strings.NewReader(dump), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range tc.sources {
		got, want := db2.Table(src).Rows(), db3.Table(src).Rows()
		if len(got) != len(want) {
			t.Fatalf("source %s: %d rows, control %d", src, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || !g.Equal(w) {
				t.Fatalf("source %s row %q diverged", src, k)
			}
		}
	}
}
