// Command nbschema-bench regenerates the paper's evaluation figures
// (Løland & Hvasshovd, EDBT 2006, Section 6) and prints each as a table.
//
// Usage:
//
//	nbschema-bench [-fig 4a|4b|4c|4d|4a-foj|4c-foj|cc|sync|ablation|workload|scale|compaction|recovery|lag|mvcc|all]
//	               [-paper] [-rows N] [-sample dur] [-repeats N] [-seed N]
//	               [-out file.json] [-timeline file.json]
//
// The workload experiment additionally writes a machine-readable JSON report
// (-out, default BENCH_workload.json): per-window throughput and response-time
// percentiles, transformation phase durations, per-rule propagation counts,
// live progress samples with ETA, and the full engine metric snapshot. The
// scale, compaction, recovery, lag and mvcc experiments each replace their own
// field of that report and leave the rest of the file as it was.
//
// By default a laptop-scale variant of every figure runs in a few minutes;
// -paper selects the paper's 50 000/20 000-record setup (slower, less noisy).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nbschema/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 4a, 4b, 4c, 4d, 4a-foj, 4c-foj, cc, sync, ablation, workload, scale, compaction, recovery, lag, mvcc, all")
		paper   = flag.Bool("paper", false, "use the paper's table sizes (50k/20k records)")
		rows    = flag.Int("rows", 0, "override row count for the transformed table(s)")
		sample  = flag.Duration("sample", 0, "override measurement window")
		repeats = flag.Int("repeats", 0, "measurements per point (median reported)")
		seed    = flag.Int64("seed", 1, "workload seed")
		out     = flag.String("out", "BENCH_workload.json", "output file for the workload JSON report")
		tlOut   = flag.String("timeline", "BENCH_timeline.json", "output file for the lag figure's Chrome-trace timeline JSON")
	)
	flag.Parse()

	p := bench.Default()
	if *paper {
		p = bench.Paper()
	}
	if *rows > 0 {
		p.TRows, p.RRows = *rows, *rows
		p.SRows = *rows * 2 / 5 // keep the paper's 50k:20k proportion
	}
	if *sample > 0 {
		p.BaselineDur, p.SampleDur = *sample, *sample
	}
	if *repeats > 0 {
		p.Repeats = *repeats
	}
	p.Seed = *seed

	experiments := []struct {
		name string
		run  runFn
	}{
		{"4a", printed(bench.Figure4a)},
		{"4b", printed(bench.Figure4b)},
		{"4c", printed(bench.Figure4c)},
		{"4d", printed(bench.Figure4d)},
		{"4a-foj", printed(bench.Figure4aFOJ)},
		{"4c-foj", printed(bench.Figure4cFOJ)},
		{"cc", printed(bench.FigureCC)},
		{"sync", printed(func(p bench.Params) (bench.Result, error) { return bench.SyncLatency(p, 5) })},
		{"ablation", printed(bench.AblationTriggers)},
		{"workload", runWorkload},
		{"scale", merged(bench.FigureScale, func(rep *bench.WorkloadReport, v *bench.ScaleReport) { rep.Scale = v })},
		{"compaction", merged(bench.FigureCompaction, func(rep *bench.WorkloadReport, v *bench.CompactionReport) { rep.Compaction = v })},
		{"recovery", merged(bench.FigureRecovery, func(rep *bench.WorkloadReport, v *bench.RecoveryReport) { rep.Recovery = v })},
		{"lag", func(p bench.Params) (contribution, error) {
			res, lag, trace, err := bench.FigureLag(p)
			if err != nil {
				return nil, err
			}
			fmt.Println(res.Format())
			if err := os.WriteFile(*tlOut, trace, 0o644); err != nil {
				return nil, err
			}
			fmt.Printf("timeline trace written to %s\n", *tlOut)
			return func(rep *bench.WorkloadReport) { rep.Lag = lag }, nil
		}},
		{"mvcc", merged(bench.FigureMVCC, func(rep *bench.WorkloadReport, v *bench.MVCCReport) { rep.MVCC = v })},
	}

	want := strings.ToLower(*fig)
	ran := 0
	start := time.Now()
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		ran++
		fmt.Printf("running %s ...\n", e.name)
		t0 := time.Now()
		apply, err := e.run(p)
		if err == nil && apply != nil {
			if err = mergeReport(*out, p.Seed, apply); err == nil {
				fmt.Printf("%s report merged into %s\n", e.name, *out)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("done: %d experiment(s) in %v\n", ran, time.Since(start).Round(time.Millisecond))
}

// A contribution is what one experiment changes in the report file; nil
// leaves the file alone. A runFn runs an experiment, prints its figure and
// returns its contribution.
type (
	contribution func(*bench.WorkloadReport)
	runFn        func(bench.Params) (contribution, error)
)

// printed adapts a figure that only prints a table.
func printed(f func(bench.Params) (bench.Result, error)) runFn {
	return func(p bench.Params) (contribution, error) {
		res, err := f(p)
		if err != nil {
			return nil, err
		}
		fmt.Println(res.Format())
		return nil, nil
	}
}

// merged adapts a figure that prints a table and owns one field of the report
// file, which set stores.
func merged[T any](f func(bench.Params) (bench.Result, T, error), set func(*bench.WorkloadReport, T)) runFn {
	return func(p bench.Params) (contribution, error) {
		res, v, err := f(p)
		if err != nil {
			return nil, err
		}
		fmt.Println(res.Format())
		return func(rep *bench.WorkloadReport) { set(rep, v) }, nil
	}
}

// mergeReport applies one experiment's contribution to the report file: a
// readable report at path keeps every field apply does not touch; otherwise a
// fresh report carrying only the seed is the starting point.
func mergeReport(path string, seed int64, apply contribution) error {
	rep := &bench.WorkloadReport{Seed: seed}
	if data, err := os.ReadFile(path); err == nil {
		var existing bench.WorkloadReport
		if json.Unmarshal(data, &existing) == nil {
			rep = &existing
		}
	}
	apply(rep)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload runs the instrumented workload experiment and prints a short
// summary; its report replaces the whole report file.
func runWorkload(p bench.Params) (contribution, error) {
	rep, err := bench.RunWorkload(p)
	if err != nil {
		return nil, err
	}
	fmt.Printf("== workload — closed-loop update workload around a background split ==\n")
	fmt.Printf("%-10s %12s %12s %10s %10s %10s %6s %6s\n",
		"window", "txns", "tput (t/s)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "ddlk", "tmout")
	for _, w := range rep.Windows {
		fmt.Printf("%-10s %12d %12.1f %10.3f %10.3f %10.3f %6d %6d\n",
			w.Name, w.Txns, w.Throughput, w.P50Ms, w.P95Ms, w.P99Ms, w.Deadlocks, w.Timeouts)
	}
	t := rep.Transform
	fmt.Printf("transform: total %.1fms (populate %.1f, propagate %.1f over %d iters, latch %.3f)\n",
		t.TotalMs, t.PopulationMs, t.PropagationMs, t.Iterations, t.SyncLatchMs)
	fmt.Printf("           %d records applied, rules %v, %d trace events, %d progress samples\n",
		t.RecordsApplied, t.Rules, t.TraceEvents, len(t.Progress))
	return func(file *bench.WorkloadReport) { *file = *rep }, nil
}
