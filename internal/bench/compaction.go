package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"nbschema/internal/core"
	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
	"nbschema/internal/workload"
)

// CompactionArm is one side of the compaction ablation: the committed
// workload experiment (split under the closed-loop update/insert/delete
// load) with net-effect compaction either on or off.
type CompactionArm struct {
	Mode           string  `json:"mode"` // "on" or "off"
	PropagationMs  float64 `json:"propagation_ms"`
	TotalMs        float64 `json:"total_ms"`
	Iterations     int     `json:"iterations"`
	RecordsApplied int64   `json:"records_applied"`
	RecordsScanned int64   `json:"records_scanned"`
	CompactRatio   float64 `json:"compact_ratio,omitempty"`
}

// CompactionReport is the machine-readable compaction figure: both ablation
// arms, the headline ratios the optimisation is judged by, and the result of
// the deterministic image-equality check (the same scripted history
// propagated with and without compaction must publish identical target
// tables).
type CompactionReport struct {
	Arms []CompactionArm `json:"arms"`
	// AppliedRatio is raw records applied over compacted records applied.
	AppliedRatio float64 `json:"applied_ratio"`
	// PropagationSpeedup is raw propagation wall-clock over compacted.
	PropagationSpeedup float64 `json:"propagation_speedup"`
	ImagesEqual        bool    `json:"images_equal"`
}

// FigureCompaction measures the net-effect compaction ablation: the workload
// experiment's split transformation run once with compaction off (raw replay
// — the pre-compaction baseline) and once with it on, under the same
// closed-loop load, comparing records applied and propagation wall-clock.
// Separately, a deterministic scripted history is propagated under both
// modes and the published target images are compared row for row.
func FigureCompaction(p Params) (Result, *CompactionReport, error) {
	p = p.withDefaults()
	rep := &CompactionReport{}
	for _, mode := range []core.CompactionMode{core.CompactionOff, core.CompactionOn} {
		arm, err := measureCompaction(p, mode)
		if err != nil {
			return Result{}, nil, err
		}
		rep.Arms = append(rep.Arms, arm)
	}
	off, on := rep.Arms[0], rep.Arms[1]
	if on.RecordsApplied > 0 {
		rep.AppliedRatio = float64(off.RecordsApplied) / float64(on.RecordsApplied)
	}
	if on.PropagationMs > 0 {
		rep.PropagationSpeedup = off.PropagationMs / on.PropagationMs
	}

	equal, err := compactionImagesEqual(p)
	if err != nil {
		return Result{}, nil, err
	}
	rep.ImagesEqual = equal

	res := Result{
		Figure: "compaction",
		Title:  "net-effect compaction ablation (split under workload)",
		XLabel: "mode(0=off,1=on)",
		YLabel: "records applied",
		Series: []Series{
			{Name: "records applied", Points: []Point{
				{X: 0, Y: float64(off.RecordsApplied)}, {X: 1, Y: float64(on.RecordsApplied)}}},
			{Name: "propagation ms", Points: []Point{
				{X: 0, Y: off.PropagationMs}, {X: 1, Y: on.PropagationMs}}},
		},
		Notes: []string{
			fmt.Sprintf("applied reduction: %.2fx, propagation speedup: %.2fx", rep.AppliedRatio, rep.PropagationSpeedup),
			fmt.Sprintf("compact ratio (scanned/applied on the compacted arm): %.2f", on.CompactRatio),
			fmt.Sprintf("scripted-history target images identical across modes: %v", rep.ImagesEqual),
		},
	}
	return res, rep, nil
}

// measureCompaction runs one ablation arm: the split transformation as a
// background process under the closed-loop workload, compaction pinned to
// mode, reporting the transformation's propagation metrics.
func measureCompaction(p Params, mode core.CompactionMode) (CompactionArm, error) {
	q := p
	q.Obs = nil // per-arm registry noise is not part of this figure
	env, err := newSplitEnv(q)
	if err != nil {
		return CompactionArm{}, err
	}
	clients := q.MaxClients
	if q.Calibrated > 0 {
		clients = q.Calibrated
	}
	r := workload.Start(workload.Config{
		DB: env.db, Targets: env.targets(q.SourceFrac), Clients: clients,
		Seed: q.Seed, Think: q.Think, InsertFrac: q.InsertFrac,
	})
	time.Sleep(q.BaselineDur) // reach steady load before transforming
	tr, err := env.transformation(core.Config{
		Priority:     q.Priority,
		Strategy:     core.NonBlockingAbort,
		Compaction:   mode,
		Analyzer:     core.EstimateAnalyzer(q.SampleDur / 2),
		StallTimeout: 8 * q.SampleDur,
	})
	if err != nil {
		_ = r.Stop()
		return CompactionArm{}, err
	}
	trErr := tr.Run(context.Background())
	if stopErr := r.Stop(); stopErr != nil && trErr == nil {
		trErr = stopErr
	}
	if trErr != nil {
		return CompactionArm{}, fmt.Errorf("bench: compaction arm: %w", trErr)
	}
	m := tr.Metrics()
	arm := CompactionArm{
		Mode:           map[core.CompactionMode]string{core.CompactionOff: "off", core.CompactionOn: "on"}[mode],
		PropagationMs:  ms(m.PropagationDuration),
		TotalMs:        ms(m.TotalDuration),
		Iterations:     m.Iterations,
		RecordsApplied: m.RecordsApplied,
		RecordsScanned: m.RecordsScanned,
	}
	if m.CompactOut > 0 {
		arm.CompactRatio = float64(m.CompactIn) / float64(m.CompactOut)
	}
	return arm, nil
}

// compactionImagesEqual drives the same deterministic operation script into
// two fresh databases while a split runs — one with compaction, one without
// — and compares the published target tables row for row. Whatever the
// interleaving, both runs commit the same final source state, so the targets
// must be identical if and only if compacted replay is equivalent to raw
// replay.
func compactionImagesEqual(p Params) (bool, error) {
	a, err := runScriptedSplit(p, core.CompactionOff)
	if err != nil {
		return false, err
	}
	b, err := runScriptedSplit(p, core.CompactionOn)
	if err != nil {
		return false, err
	}
	if len(a) != len(b) {
		return false, nil
	}
	for i := range a {
		if a[i] != b[i] {
			return false, nil
		}
	}
	return true, nil
}

// runScriptedSplit runs the split with a deterministic single-driver op
// script (updates, inserts, deletes on T plus dummy load) applied while the
// transformation propagates. The analyzer is gated so switchover never
// happens before the script has fully committed. It returns the sorted
// encoded rows of both published target tables.
func runScriptedSplit(p Params, mode core.CompactionMode) ([]string, error) {
	q := p
	q.Obs = nil
	env, err := newSplitEnv(q)
	if err != nil {
		return nil, err
	}
	var scriptDone atomic.Bool
	inner := core.EstimateAnalyzer(q.SampleDur / 2)
	tr, err := env.transformation(core.Config{
		Priority:   q.Priority,
		Strategy:   core.NonBlockingAbort,
		Compaction: mode,
		Analyzer: func(a core.Analysis) bool {
			return scriptDone.Load() && inner(a)
		},
		StallTimeout: 8 * q.SampleDur,
	})
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- tr.Run(context.Background()) }()

	if err := runCompactionScript(env.db, q); err != nil {
		scriptDone.Store(true)
		<-done
		return nil, err
	}
	scriptDone.Store(true)
	if err := <-done; err != nil {
		return nil, fmt.Errorf("bench: scripted split: %w", err)
	}

	var rows []string
	for _, name := range []string{"T_base", "T_grp"} {
		tbl := env.db.Table(name)
		if tbl == nil {
			return nil, fmt.Errorf("bench: published table %s missing", name)
		}
		tbl.Scan(func(row value.Tuple, _ wal.LSN) bool {
			rows = append(rows, name+"\x00"+row.Encode())
			return true
		})
	}
	sort.Strings(rows)
	return rows, nil
}

// runCompactionScript applies a fixed, seed-deterministic transaction script:
// interleaved update runs, insert+delete round-trips and delete+reinsert
// pairs on T, with dummy-table churn in between. Aborted transactions (lock
// conflicts or doomed by the non-blocking-abort sync) are retried until they
// commit, so every run commits exactly the same final state.
func runCompactionScript(db *engine.DB, p Params) error {
	rng := rand.New(rand.NewSource(p.Seed * 31))
	sv := int64(p.SplitValues)
	mk := func(i int64) value.Tuple {
		grp := i % sv
		return value.Tuple{value.Int(i), value.Int(0), value.Int(grp), value.Int(grp * 10)}
	}
	present := make(map[int64]bool)
	nTxns := p.TRows / 4
	for t := 0; t < nTxns; t++ {
		// Pre-generate the txn's ops so retries replay the identical txn.
		type op struct {
			kind int // 0 update T, 1 toggle T, 2 update dummy
			key  int64
			val  int64
		}
		ops := make([]op, 0, 10)
		for i := 0; i < 10; i++ {
			switch {
			case rng.Float64() < 0.12:
				ops = append(ops, op{kind: 1, key: int64(p.TRows) + rng.Int63n(256)})
			case rng.Float64() < 0.25:
				ops = append(ops, op{kind: 0, key: rng.Int63n(int64(p.TRows)), val: rng.Int63()})
			default:
				ops = append(ops, op{kind: 2, key: rng.Int63n(int64(p.TRows)), val: rng.Int63()})
			}
		}
		for {
			tx := db.Begin()
			var err error
			toggled := make(map[int64]bool)
			for _, o := range ops {
				switch o.kind {
				case 0:
					err = tx.Update("T", value.Tuple{value.Int(o.key)},
						[]string{"payload"}, value.Tuple{value.Int(o.val)})
				case 1:
					cur := present[o.key] != toggled[o.key] // committed XOR in-txn flips
					if cur {
						err = tx.Delete("T", value.Tuple{value.Int(o.key)})
					} else {
						err = tx.Insert("T", mk(o.key))
					}
					if err == nil {
						toggled[o.key] = !toggled[o.key]
					}
				case 2:
					err = tx.Update("dummy", value.Tuple{value.Int(o.key)},
						[]string{"payload"}, value.Tuple{value.Int(o.val)})
				}
				if err != nil {
					break
				}
			}
			if err == nil {
				err = tx.Commit()
			}
			if err == nil {
				for k, flipped := range toggled {
					if flipped {
						present[k] = !present[k]
					}
				}
				break
			}
			if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
				return aerr
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}
