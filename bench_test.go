// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// (Figure 4a–4d plus the FOJ variants and prose claims), each printing the
// regenerated series and reporting headline numbers as benchmark metrics,
// plus micro-benchmarks of the substrate.
//
// The figure benchmarks use laptop-scale workloads; run
// cmd/nbschema-bench -paper for the paper's 50 000/20 000-record setup.
package nbschema_test

import (
	"context"
	"testing"
	"time"

	"nbschema"
	"nbschema/internal/bench"
	"nbschema/internal/storage"
	"nbschema/internal/workload"
)

// figureParams sizes the figure benchmarks: small enough for `go test
// -bench=.`, large enough for stable relative measurements.
func figureParams() bench.Params {
	return bench.Params{
		TRows: 20000, RRows: 20000, SRows: 8000, SplitValues: 1000,
		Workloads:   []int{50, 75, 100},
		MaxClients:  8,
		BaselineDur: 250 * time.Millisecond,
		SampleDur:   250 * time.Millisecond,
		Priority:    0.3,
		Priorities:  []float64{0.05, 0.2, 1.0},
		Seed:        1,
	}
}

// reportSeries logs the regenerated figure and reports the mean of each
// series as a benchmark metric.
func reportSeries(b *testing.B, r bench.Result, metricBySeries map[string]string) {
	b.Helper()
	b.Log("\n" + r.Format())
	for _, s := range r.Series {
		metric, ok := metricBySeries[s.Name]
		if !ok || len(s.Points) == 0 {
			continue
		}
		var sum float64
		for _, p := range s.Points {
			sum += p.Y
		}
		b.ReportMetric(sum/float64(len(s.Points)), metric)
	}
}

// BenchmarkFigure4a — interference on throughput by initial population
// (split, 20% updates on T).
func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4a(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{
			"rel. throughput": "relTput",
			"rel. resp. time": "relRT",
		})
	}
}

// BenchmarkFigure4b — interference on response time by initial population.
func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4b(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{"rel. resp. time": "relRT"})
	}
}

// BenchmarkFigure4c — interference on throughput by log propagation for 20%
// and 80% updates on T.
func BenchmarkFigure4c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4c(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{
			"20% updates on source": "relTput20",
			"80% updates on source": "relTput80",
		})
	}
}

// BenchmarkFigure4d — propagation time and interference vs priority at 75%
// workload.
func BenchmarkFigure4d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4d(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{
			"propagation time (ms)": "propMs",
			"rel. throughput":       "relTput",
		})
	}
}

// BenchmarkFigure4aFOJ — the FOJ variant the paper reports as very similar.
func BenchmarkFigure4aFOJ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4aFOJ(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{"rel. throughput": "relTput"})
	}
}

// BenchmarkFigure4cFOJ — FOJ log-propagation interference.
func BenchmarkFigure4cFOJ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4cFOJ(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{
			"20% updates on source": "relTput20",
			"80% updates on source": "relTput80",
		})
	}
}

// BenchmarkFigureCC — split propagation with the consistency checker (§5.3).
func BenchmarkFigureCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.FigureCC(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{"rel. throughput": "relTput"})
	}
}

// BenchmarkSyncNonBlockingAbort — the synchronization latch window the paper
// reports below 1 ms.
func BenchmarkSyncNonBlockingAbort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.SyncLatency(figureParams(), 3)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{"latch window (µs)": "latchUs"})
	}
}

// BenchmarkAblationTriggers — log-based propagation vs Ronström-style
// triggers inside user transactions (§2.1).
func BenchmarkAblationTriggers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationTriggers(figureParams())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, r, map[string]string{"trigger-based": "relTputTriggers"})
	}
}

// ---- substrate micro-benchmarks ----

func microDB(b *testing.B, rows int) *nbschema.DB {
	b.Helper()
	db := nbschema.Open()
	if err := db.CreateTable("t", []nbschema.Column{
		{Name: "id", Type: nbschema.Int},
		{Name: "payload", Type: nbschema.Int, Nullable: true},
	}, "id"); err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < rows; i++ {
		if err := tx.Insert("t", i, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkTxnUpdate10 measures the paper's workload unit: one transaction
// updating 10 records under record locks.
func BenchmarkTxnUpdate10(b *testing.B) {
	db := microDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		for j := 0; j < 10; j++ {
			key := (i*10 + j*997) % 10000
			if err := tx.Update("t", []any{key}, []string{"payload"}, []any{i}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertCommit measures single-row insert transactions.
func BenchmarkInsertCommit(b *testing.B) {
	db := microDB(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.Insert("t", i, i); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzyScan measures the lock-free scan feeding initial population.
func BenchmarkFuzzyScan(b *testing.B) {
	db := microDB(b, 20000)
	tbl := db.Engine().Table("t")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for pi := 0; pi < tbl.Partitions(); pi++ {
			tbl.FuzzyScanPartition(pi, 256, func(recs []storage.Record) { n += len(recs) })
		}
		if n != 20000 {
			b.Fatalf("scanned %d rows", n)
		}
	}
}

// BenchmarkSplitEndToEnd measures a complete split transformation of 10k
// rows on an otherwise idle system.
func BenchmarkSplitEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := nbschema.Open()
		if err := db.CreateTable("T", []nbschema.Column{
			{Name: "id", Type: nbschema.Int},
			{Name: "grp", Type: nbschema.Int},
			{Name: "info", Type: nbschema.Int, Nullable: true},
		}, "id"); err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		for j := 0; j < 10000; j++ {
			if err := tx.Insert("T", j, j%500, (j%500)*3); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr, err := db.Split(nbschema.SplitSpec{
			Source: "T", Left: "R", Right: "S",
			SplitOn: []string{"grp"}, RightOnly: []string{"info"},
		}, nbschema.TransformOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinEndToEnd measures a complete FOJ transformation.
func BenchmarkJoinEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := nbschema.Open()
		if err := db.CreateTable("R", []nbschema.Column{
			{Name: "id", Type: nbschema.Int},
			{Name: "jv", Type: nbschema.Int, Nullable: true},
		}, "id"); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable("S", []nbschema.Column{
			{Name: "jv", Type: nbschema.Int},
			{Name: "info", Type: nbschema.Int, Nullable: true},
		}, "jv"); err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		for j := 0; j < 10000; j++ {
			if err := tx.Insert("R", j, j%1000); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 500; j++ {
			if err := tx.Insert("S", j, j); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr, err := db.FullOuterJoin(nbschema.JoinSpec{
			Target: "T", Left: "R", Right: "S",
			On: [][2]string{{"jv", "jv"}},
		}, nbschema.TransformOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBaseline reports the absolute baseline throughput of the
// paper workload on this machine (transactions of 10 updates).
func BenchmarkWorkloadBaseline(b *testing.B) {
	p := figureParams()
	for i := 0; i < b.N; i++ {
		env := nbschema.Open()
		if err := env.CreateTable("t", []nbschema.Column{
			{Name: "id", Type: nbschema.Int},
			{Name: "payload", Type: nbschema.Int, Nullable: true},
		}, "id"); err != nil {
			b.Fatal(err)
		}
		tx := env.Begin()
		for j := 0; j < p.TRows; j++ {
			if err := tx.Insert("t", j, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		stats, err := workload.Measure(workload.Config{
			DB: env.Engine(),
			Targets: []workload.Target{
				{Table: "t", Keys: int64(p.TRows), Col: "payload", Weight: 1},
			},
			Clients: p.Calibrated,
		}, p.BaselineDur)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Throughput, "txn/s")
		b.ReportMetric(float64(stats.MeanRT.Microseconds()), "meanRTµs")
	}
}
