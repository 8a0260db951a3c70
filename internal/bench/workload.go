package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nbschema/internal/core"
	"nbschema/internal/obs"
	"nbschema/internal/workload"
)

// WorkloadWindow summarizes one measurement window of the workload report.
type WorkloadWindow struct {
	Name       string  `json:"name"`
	DurationMs float64 `json:"duration_ms"`
	Txns       uint64  `json:"txns"`
	Aborts     uint64  `json:"aborts"`
	Deadlocks  uint64  `json:"deadlocks"`
	Timeouts   uint64  `json:"timeouts"`
	Conflicts  uint64  `json:"conflicts"`
	Throughput float64 `json:"throughput_tps"`
	MeanRTMs   float64 `json:"mean_rt_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// ProgressSample is one Progress snapshot taken while the transformation ran.
type ProgressSample struct {
	AtMs      float64 `json:"at_ms"` // since the transformation started
	Phase     string  `json:"phase"`
	Iteration int     `json:"iteration"`
	Applied   int64   `json:"applied"`
	Remaining int     `json:"remaining"`
	Rate      float64 `json:"rate_per_sec"`
	ETAMs     float64 `json:"eta_ms"`
	ETAValid  bool    `json:"eta_valid"`
}

// WorkloadTransform reports what the background transformation did.
type WorkloadTransform struct {
	Kind             string           `json:"kind"`
	Strategy         string           `json:"strategy"`
	Priority         float64          `json:"priority"`
	PopulationMs     float64          `json:"population_ms"`
	PropagationMs    float64          `json:"propagation_ms"`
	SyncLatchMs      float64          `json:"sync_latch_ms"`
	DrainMs          float64          `json:"drain_ms"`
	TotalMs          float64          `json:"total_ms"`
	Iterations       int              `json:"iterations"`
	RecordsApplied   int64            `json:"records_applied"`
	RecordsScanned   int64            `json:"records_scanned"`
	CompactIn        int64            `json:"compact_in,omitempty"`
	CompactOut       int64            `json:"compact_out,omitempty"`
	CompactRatio     float64          `json:"compact_ratio,omitempty"`
	CompactFenced    int64            `json:"compact_fenced_keys,omitempty"`
	InitialImageRows int64            `json:"initial_image_rows"`
	DoomedTxns       int              `json:"doomed_txns"`
	Rules            map[string]int64 `json:"rules,omitempty"`
	TraceEvents      int              `json:"trace_events"`
	TraceDropped     int64            `json:"trace_dropped"`
	Progress         []ProgressSample `json:"progress,omitempty"`
}

// WorkloadReport is the machine-readable result of the workload experiment:
// the paper's closed-loop update workload measured before, during, and after
// a background split transformation.
type WorkloadReport struct {
	Rows      int               `json:"rows"`
	Clients   int               `json:"clients"`
	Seed      int64             `json:"seed"`
	Windows   []WorkloadWindow  `json:"windows"`
	Transform WorkloadTransform `json:"transform"`
	Metrics   obs.Snapshot      `json:"metrics"`
	// History is the telemetry time series sampled across the whole run:
	// per-window rates (txn throughput, deadlocks, propagation), latency
	// percentiles and position gauges. The bench.window gauge marks which
	// measurement window (0 baseline, 1 during, 2 after) each sample fell in.
	History []obs.HistorySample `json:"history,omitempty"`
	// Scale carries the concurrency scale figure (FigureScale) when the
	// scale experiment ran; the CLI merges it into the same report file.
	Scale *ScaleReport `json:"scale,omitempty"`
	// Compaction carries the net-effect compaction ablation
	// (FigureCompaction) when that experiment ran; merged like Scale.
	Compaction *CompactionReport `json:"compaction,omitempty"`
	// Recovery carries the checkpoint recovery-bound figure
	// (FigureRecovery) when that experiment ran; merged like Scale.
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// Lag carries the freshness-lag figure (FigureLag) when that experiment
	// ran — the lag time series, switchover verdict and per-phase timeline
	// summary; merged like Scale.
	Lag *LagReport `json:"lag,omitempty"`
	// MVCC carries the snapshot-isolation figure (FigureMVCC) — read
	// latency and throughput of 2PL locking readers vs MVCC snapshot
	// readers during a live transformation; merged like Scale.
	MVCC *MVCCReport `json:"mvcc,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *WorkloadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func window(name string, a, b workload.Counters) WorkloadWindow {
	s := workload.Between(a, b)
	return WorkloadWindow{
		Name:       name,
		DurationMs: ms(s.Duration),
		Txns:       s.Txns,
		Aborts:     s.Aborts,
		Deadlocks:  s.Deadlocks,
		Timeouts:   s.Timeouts,
		Conflicts:  s.Conflicts,
		Throughput: s.Throughput,
		MeanRTMs:   ms(s.MeanRT),
		P50Ms:      ms(s.P50),
		P95Ms:      ms(s.P95),
		P99Ms:      ms(s.P99),
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// RunWorkload runs the workload experiment: measure a baseline window, run a
// split transformation in the background while measuring the "during" window
// and sampling its Progress, then measure an "after" window against the new
// tables. The full engine metric snapshot rides along in the report.
func RunWorkload(p Params) (*WorkloadReport, error) {
	p = p.withDefaults()
	if p.Obs == nil {
		p.Obs = obs.NewRegistry()
	}
	env, err := newSplitEnv(p)
	if err != nil {
		return nil, err
	}
	targets := env.targets(p.SourceFrac)
	clients, err := calibrate(p, env.db, targets)
	if err != nil {
		return nil, err
	}

	r := workload.Start(workload.Config{
		DB: env.db, Targets: targets, Clients: clients,
		Seed: p.Seed, Think: p.Think, InsertFrac: p.InsertFrac,
		Obs: p.Obs,
	})
	report := &WorkloadReport{Rows: p.TRows, Clients: clients, Seed: p.Seed}

	// Telemetry history across all three windows: sample at 1/8 of the
	// baseline window so the series spans baseline/during/after with 10+
	// points, marking the active window in the bench.window gauge. The
	// watchdog rides along so engine.health.* gauges land in the series too.
	hist := obs.NewHistory(p.Obs, p.BaselineDur/8, 512)
	hist.PreSample(env.db.SampleObs)
	wd := obs.NewWatchdog(p.Obs, obs.WatchdogConfig{})
	hist.OnSample(wd.Observe)
	benchWindow := p.Obs.Gauge("bench.window")
	hist.Start()
	defer hist.Stop()

	// Baseline: workload alone.
	c0 := r.Snapshot()
	time.Sleep(p.BaselineDur)
	c1 := r.Snapshot()
	report.Windows = append(report.Windows, window("baseline", c0, c1))
	benchWindow.Set(1)

	// During: the transformation runs as a background process.
	tr, err := env.transformation(core.Config{
		Priority: p.Priority,
		Strategy: core.NonBlockingAbort,
		// Estimate-based analysis with a generous window plus the default
		// boost-on-stall policy: under a sustained 100% workload a tight
		// threshold is never reached at low priority (cf. Figure 4d).
		Analyzer:     core.EstimateAnalyzer(p.SampleDur / 2),
		StallTimeout: 8 * p.SampleDur,
	})
	if err != nil {
		_ = r.Stop()
		return nil, err
	}
	trStart := time.Now()
	done := make(chan error, 1)
	go func() { done <- tr.Run(context.Background()) }()

	var samples []ProgressSample
	sample := func() {
		pr := tr.Progress()
		samples = append(samples, ProgressSample{
			AtMs:      ms(time.Since(trStart)),
			Phase:     pr.Phase.String(),
			Iteration: pr.Iteration,
			Applied:   pr.RecordsApplied,
			Remaining: pr.Remaining,
			Rate:      pr.Rate,
			ETAMs:     ms(pr.ETA),
			ETAValid:  pr.ETAValid,
		})
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var trErr error
sampling:
	for {
		select {
		case trErr = <-done:
			// The trail always ends on the final state, however few ticks a
			// short transformation left room for.
			sample()
			break sampling
		case <-tick.C:
			sample()
		}
	}
	c2 := r.Snapshot()
	report.Windows = append(report.Windows, window("during", c1, c2))
	if trErr != nil {
		_ = r.Stop()
		return nil, fmt.Errorf("bench: transformation: %w", trErr)
	}
	benchWindow.Set(2)

	// After: workload against the published tables.
	time.Sleep(p.SampleDur)
	c3 := r.Snapshot()
	report.Windows = append(report.Windows, window("after", c2, c3))
	if err := r.Stop(); err != nil {
		return nil, err
	}

	// Keep the progress trail bounded: thin to at most 64 samples.
	if len(samples) > 64 {
		step := float64(len(samples)) / 64
		thin := make([]ProgressSample, 0, 64)
		for i := 0; i < 64; i++ {
			thin = append(thin, samples[int(float64(i)*step)])
		}
		samples = thin
	}

	m := tr.Metrics()
	report.Transform = WorkloadTransform{
		Kind:             "split",
		Strategy:         core.NonBlockingAbort.String(),
		Priority:         p.Priority,
		PopulationMs:     ms(m.PopulationDuration),
		PropagationMs:    ms(m.PropagationDuration),
		SyncLatchMs:      ms(m.SyncLatchDuration),
		DrainMs:          ms(m.DrainDuration),
		TotalMs:          ms(m.TotalDuration),
		Iterations:       m.Iterations,
		RecordsApplied:   m.RecordsApplied,
		RecordsScanned:   m.RecordsScanned,
		CompactIn:        m.CompactIn,
		CompactOut:       m.CompactOut,
		CompactFenced:    m.CompactFencedKeys,
		InitialImageRows: m.InitialImageRows,
		DoomedTxns:       m.DoomedTxns,
		Rules:            tr.RuleApplications(),
		TraceEvents:      len(tr.Trace()),
		TraceDropped:     tr.TraceDropped(),
		Progress:         samples,
	}
	if m.CompactOut > 0 {
		report.Transform.CompactRatio = float64(m.CompactIn) / float64(m.CompactOut)
	}
	// One final tick so the "after" window is represented even on very short
	// runs, then bound the embedded series.
	hist.Sample()
	hist.Stop()
	report.History = hist.Samples()
	if len(report.History) > 128 {
		step := float64(len(report.History)) / 128
		thin := make([]obs.HistorySample, 0, 128)
		for i := 0; i < 128; i++ {
			thin = append(thin, report.History[int(float64(i)*step)])
		}
		report.History = thin
	}
	report.Metrics = p.Obs.Snapshot()
	return report, nil
}
