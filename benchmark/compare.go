package main

import (
	"fmt"
	"io"
)

// -compare judges two sets of runs (two -out files) of the same benchmark:
// two sets of one commit, to see that the benchmark agrees with itself, or a
// parent and a change. One row per workload and end-to-end metric.

// Verdicts of a row.
const (
	verdictOK = "ok"
	// verdictRegressed: b's median is worse than a's by more than the bound.
	verdictRegressed = "regressed"
	// verdictUnresolved: the runs of one side spread wider than the bound, so
	// the medians cannot tell a regression from noise.
	verdictUnresolved = "unresolved"
)

// judge compares the values of one metric over the runs of two sets.
func judge(d metricDef, a, b []float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	switch {
	case spread(a) > d.bound || spread(b) > d.bound:
		return change, verdictUnresolved
	case worse > d.bound:
		return change, verdictRegressed
	}
	return change, verdictOK
}

// runSet is the untraced runs of one -out file: per workload and metric the
// values, the workloads in the order they first appear, and the settings all
// of its invocations share.
type runSet struct {
	vals  map[string]map[string][]float64
	order []string
	env   env
}

// collect gathers a file's untraced runs. Medians and spreads mean something
// only over runs of one commit with the same settings, so a file that mixes
// commits, -quick with full size, or two values of -seconds is refused. Seeds
// may differ: that is what a set is.
func collect(path string) (runSet, error) {
	reps, err := readReports(path)
	if err != nil {
		return runSet{}, err
	}
	if len(reps) == 0 {
		return runSet{}, fmt.Errorf("%s: no runs", path)
	}
	vals := map[string]map[string][]float64{}
	var order []string
	first := reps[0].Env
	for _, rep := range reps {
		if e := rep.Env; e.Commit != first.Commit || e.Quick != first.Quick || e.Seconds != first.Seconds {
			return runSet{}, fmt.Errorf("%s mixes runs that do not compare: commit %s quick=%v seconds=%v and commit %s quick=%v seconds=%v",
				path, first.Commit, first.Quick, first.Seconds, e.Commit, e.Quick, e.Seconds)
		}
		for _, run := range rep.Runs {
			if run.Traced {
				continue // end-to-end metrics always come from untraced runs
			}
			if vals[run.Workload] == nil {
				vals[run.Workload] = map[string][]float64{}
				order = append(order, run.Workload)
			}
			for _, m := range run.EndToEnd {
				if m.NotReported == "" {
					vals[run.Workload][m.Name] = append(vals[run.Workload][m.Name], m.Value)
				}
			}
		}
	}
	return runSet{vals, order, first}, nil
}

// compareFiles prints the comparison and reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) bool {
	a, err := collect(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := collect(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	// The two sides may be two commits, but not two sizes or window lengths.
	if a.env.Quick != b.env.Quick || a.env.Seconds != b.env.Seconds {
		fatalf("%s (quick=%v seconds=%v) and %s (quick=%v seconds=%v) were not run with the same settings",
			pathA, a.env.Quick, a.env.Seconds, pathB, b.env.Quick, b.env.Seconds)
	}
	fmt.Fprintf(w, "a = %s (commit %s), b = %s (commit %s); change = (b − a) / a of the medians; spread = interquartile distance / median\n",
		pathA, a.env.Commit, pathB, b.env.Commit)
	fmt.Fprintf(w, "%-14s %-22s %-6s %14s %3s %8s %14s %3s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median a", "n", "spread", "median b", "n", "spread", "change", "bound", "verdict")
	allOK := true
	for _, wl := range a.order {
		for _, d := range endToEnd {
			va, vb := a.vals[wl][d.name], b.vals[wl][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, verdict := judge(d, va, vb)
			allOK = allOK && verdict == verdictOK
			fmt.Fprintf(w, "%-14s %-22s %-6s %14.3f %3d %7.1f%% %14.3f %3d %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl, d.name, d.unit, median(va), len(va), 100*spread(va), median(vb), len(vb), 100*spread(vb),
				100*change, 100*d.bound, verdict)
		}
	}
	return allOK
}
