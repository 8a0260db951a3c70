package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics have none. BENCHMARK.json repeats these tables, and
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fg_tps_baseline", "txn/s", "higher", 0.25},
	{"fg_tps_during", "txn/s", "higher", 0.25},
	{"fg_mean_us_baseline", "us", "lower", 0.25},
	{"fg_mean_us_during", "us", "lower", 0.25},
	{"fg_p50_us_baseline", "us", "lower", 0.25},
	{"fg_p50_us_during", "us", "lower", 0.25},
	{"fg_p99_us_baseline", "us", "lower", 0.25},
	{"fg_p99_us_during", "us", "lower", 0.25},
	{"transform_s", "s", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.25},
}

// metric is one reported value. N is the number of samples behind it
// (transactions for a latency, trials for a median over trials). A metric
// with NotReported set has no value: the line says why, and neither the
// result line nor -compare sees it.
type metric struct {
	Name        string  `json:"name"`
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	N           int     `json:"n"`
	Note        string  `json:"note,omitempty"`
	NotReported string  `json:"not_reported,omitempty"`
}

// workloadReport is one run of one workload: N trials on fresh databases.
type workloadReport struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Loop     string `json:"loop"`
	Traced   bool   `json:"traced"`
	// Diagnostic: run and reported like the others, but not in BENCHMARK.json.
	Diagnostic bool     `json:"diagnostic,omitempty"`
	Trials     int      `json:"trials"`
	Sizes      string   `json:"sizes"`
	Windows    string   `json:"windows"`
	WallS      float64  `json:"wall_s"`
	Correct    bool     `json:"verify_ok"`
	Problems   []string `json:"problems,omitempty"`

	// Attempted counts logical transactions; one that had to be rolled back
	// is retried until it commits and its latency includes the retries, so
	// Failed counts only transactions that never committed (refused by a
	// full open-loop queue, or a non-retryable error). EngineTxns and
	// Retries count the attempts underneath.
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	EngineTxns int64            `json:"engine_txns"`
	Retries    map[string]int64 `json:"retried_attempts"`

	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer,omitempty"`
	// Info holds printed-only values: ratios and per-type latencies that
	// are neither gated nor part of the per-layer list.
	Info []metric `json:"info,omitempty"`
}

func (s *spec) sizes() string {
	if s.kind == kindFOJ {
		return fmt.Sprintf("R %d rows, S %d rows (R.jv over %d values), dummy %d rows", s.rows, s.sRows, 2*s.sRows, s.rows)
	}
	return fmt.Sprintf("T %d rows in %d groups, dummy %d rows", s.rows, s.groups, s.rows)
}

func (s *spec) loop() string {
	if s.open {
		return fmt.Sprintf("open loop, %.0f txn/s offered to %d workers, latency from due time", s.rate, clients)
	}
	return fmt.Sprintf("closed loop, %d clients, no think time", clients)
}

// runWorkload runs the trials of one workload and folds them into a report.
func runWorkload(s *spec, cfg runConfig) workloadReport {
	if cfg.quick {
		q := s.quick()
		s = &q
	}
	w := s.windowsFor(cfg.seconds)
	start := time.Now()
	wr := workloadReport{
		Workload: s.name, Why: s.why, Loop: s.loop(), Traced: cfg.traced, Diagnostic: s.diagnostic, Trials: s.trials,
		Sizes:   s.sizes(),
		Windows: fmt.Sprintf("warm-up %v, baseline %v, after %v", w.warm, w.baseline, w.after),
		Correct: true, Retries: map[string]int64{},
	}
	var tf *traceFile
	if cfg.traced {
		var err error
		if tf, err = createTraceFile(filepath.Join(cfg.outDir, "trace_"+s.name+".json")); err != nil {
			fatalf("span file: %v", err)
		}
	}
	trials := make([]*trialResult, s.trials)
	for t := range trials {
		r := runTrial(s, cfg.seed, t, w, cfg.traced)
		trials[t] = r
		if tf != nil {
			tf.addTrial(t, r.tracers, r.sink, r.runAt, int64(r.transformS*1e9))
		}
		// The trial's database is unreachable by now: collect it and give its
		// memory back before the next trial (or workload) loads its own, so
		// that every trial starts, and peaks, from the same floor.
		debug.FreeOSMemory()

		wr.Attempted += r.txns + r.failed
		wr.Failed += r.failed
		wr.EngineTxns += r.attempts
		for k, n := range r.retries {
			wr.Retries[retryNames[k]] += n
		}
		if r.runErr != nil {
			wr.Correct = false
			wr.Problems = append(wr.Problems, fmt.Sprintf("trial %d: %v", t, r.runErr))
		}
		for _, p := range r.problems {
			wr.Correct = false
			wr.Problems = append(wr.Problems, fmt.Sprintf("trial %d: verify: %s", t, p))
		}
	}
	wr.EndToEnd = endToEndMetrics(trials)
	wr.Info = infoMetrics(s, trials)
	if cfg.traced {
		if err := tf.close(); err != nil {
			fatalf("span file: %v", err)
		}
		calls := replayCalls
		if cfg.quick {
			calls /= 40
		}
		replay, err := runReplay(s, cfg.seed, calls)
		if err != nil {
			wr.Correct = false
			wr.Problems = append(wr.Problems, fmt.Sprintf("layer replay: %v", err))
		}
		wr.PerLayer = perLayerMetrics(s, trials, replay, calls, wr, untracedBaseline(cfg.outDir, s.name))
	}
	wr.WallS = time.Since(start).Seconds()
	if !cfg.traced && !cfg.quick {
		// What the next traced run measures its overhead against.
		if data, err := json.Marshal(wr); err == nil {
			if os.MkdirAll(cfg.outDir, 0o755) == nil {
				_ = os.WriteFile(filepath.Join(cfg.outDir, "e2e_"+s.name+".json"), data, 0o644)
			}
		}
	}
	return wr
}

// untracedBaseline returns fg_tps_baseline of the last untraced run of the
// workload (0 if there was none): traced and untraced runs never share a
// process, so the overhead is computed across two.
func untracedBaseline(outDir, workload string) float64 {
	data, err := os.ReadFile(filepath.Join(outDir, "e2e_"+workload+".json"))
	if err != nil {
		return 0
	}
	var wr workloadReport
	if json.Unmarshal(data, &wr) != nil {
		return 0
	}
	return valueOf(wr.EndToEnd, "fg_tps_baseline")
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// pooled returns the latencies of one window over all trials and types.
func pooled(trials []*trialResult, win int, types ...int) []int64 {
	if len(types) == 0 {
		types = []int{txnUpdate, txnRead, txnPair}
	}
	var out []int64
	for _, r := range trials {
		for _, typ := range types {
			out = append(out, r.lat[win][typ]...)
		}
	}
	return out
}

func overTrials(trials []*trialResult, f func(*trialResult) float64) []float64 {
	out := make([]float64, len(trials))
	for i, r := range trials {
		out[i] = f(r)
	}
	return out
}

// tps is the committed transactions per second of one window over all trials.
func tps(trials []*trialResult, win int) float64 {
	var n, secs float64
	for _, r := range trials {
		secs += r.winS[win]
		for typ := range r.lat[win] {
			n += float64(len(r.lat[win][typ]))
		}
	}
	if secs == 0 {
		return 0
	}
	return n / secs
}

// endToEndMetrics computes the gated metrics. Throughput and latencies are
// taken over the pooled windows of all trials; set-up time, time to
// switchover and memory, of which a trial has one each, are the median over
// the trials.
func endToEndMetrics(trials []*trialResult) []metric {
	nt := len(trials)
	med := func(f func(*trialResult) float64) float64 { return median(overTrials(trials, f)) }
	vals := map[string]metric{
		"setup_s":     {Value: med(func(r *trialResult) float64 { return r.setupS }), N: nt},
		"transform_s": {Value: med(func(r *trialResult) float64 { return r.transformS }), N: nt},
		"mem_peak_mb": {Value: med(func(r *trialResult) float64 { return r.memPeakMB }), N: nt},
	}
	for _, w := range []struct {
		win  int
		name string
	}{{winBaseline, "baseline"}, {winDuring, "during"}} {
		lat := pooled(trials, w.win)
		vals["fg_tps_"+w.name] = metric{Value: tps(trials, w.win), N: len(lat)}
		vals["fg_mean_us_"+w.name] = metric{Value: meanOf(lat) / 1e3, N: len(lat)}
		for _, p := range []struct {
			q    float64
			name string
		}{{0.50, "p50"}, {0.99, "p99"}} {
			m := metric{N: len(lat)}
			if v, ok := percentile(lat, p.q); ok {
				m.Value = float64(v) / 1e3
			} else {
				m.NotReported = fmt.Sprintf("fewer than %d samples beyond it", minBeyond)
			}
			vals["fg_"+p.name+"_us_"+w.name] = m
		}
	}
	return ordered(endToEnd, vals)
}

// ordered lists the values of the defined metrics in the definitions' order,
// stamped with name and unit; a metric nobody set reads 0.
func ordered(defs []metricDef, vals map[string]metric) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		m := vals[d.name]
		m.Name, m.Unit = d.name, d.unit
		out[i] = m
	}
	return out
}

// infoMetrics are printed beside the gated metrics but not gated: the
// paper's y-axis (during relative to baseline) and, on steady_mixed, the
// mean latency of each transaction type.
func infoMetrics(s *spec, trials []*trialResult) []metric {
	base, dur := pooled(trials, winBaseline), pooled(trials, winDuring)
	var out []metric
	if tb := tps(trials, winBaseline); tb > 0 && len(dur) > 0 {
		out = append(out,
			metric{Name: "interference.tput_ratio", Value: tps(trials, winDuring) / tb, Unit: "ratio", N: len(dur), Note: "fg_tps_during / fg_tps_baseline"},
			metric{Name: "interference.rt_ratio", Value: meanOf(dur) / meanOf(base), Unit: "ratio", N: len(dur), Note: "fg_mean_us_during / fg_mean_us_baseline"})
	}
	if s.kind == kindSteady {
		for typ, name := range txnTypeNames {
			lat := pooled(trials, winBaseline, typ)
			out = append(out, metric{Name: "fg_mean_us_baseline." + name, Value: meanOf(lat) / 1e3, Unit: "us", N: len(lat)})
		}
	}
	return out
}

func (wr *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s) ==\n", wr.Workload, wr.Loop)
	fmt.Fprintf(w, "why: %s\n", wr.Why)
	if wr.Diagnostic {
		fmt.Fprintf(w, "diagnostic workload: not in BENCHMARK.json, its mean and p99 do not repeat within a 25%% bound (README.md, Spread)\n")
	}
	fmt.Fprintf(w, "%s; %d trials; %s; traced=%v; wall %.1fs\n", wr.Sizes, wr.Trials, wr.Windows, wr.Traced, wr.WallS)
	fmt.Fprintf(w, "engine options: defaults; durability: none (memory-only WAL, wal.flush = 0)\n")
	row := func(m metric) {
		if m.NotReported != "" {
			fmt.Fprintf(w, "  %-34s %14s %-6s n=%d  (%s)\n", m.Name, "not reported", m.Unit, m.N, m.NotReported)
			return
		}
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	for _, m := range wr.EndToEnd {
		row(m)
	}
	for _, m := range wr.Info {
		row(m)
	}
	if len(wr.PerLayer) > 0 {
		fmt.Fprintln(w, "  -- per layer (traced run) --")
		for _, m := range wr.PerLayer {
			row(m)
		}
	}
	var retries []string
	for _, name := range retryNames {
		if n := wr.Retries[name]; n > 0 {
			retries = append(retries, fmt.Sprintf("%s %d", name, n))
		}
	}
	if len(retries) == 0 {
		retries = []string{"none"}
	}
	fmt.Fprintf(w, "  transactions: %d attempted, %d failed; %d engine transactions, rolled back and retried: %s\n",
		wr.Attempted, wr.Failed, wr.EngineTxns, strings.Join(retries, ", "))
	fmt.Fprintf(w, "  verify_ok=%v\n", wr.Correct)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// resultLine is the machine-readable result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (wr *workloadReport) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := wr.EndToEnd
	if wr.Traced {
		ms = wr.PerLayer
	}
	metrics := make(map[string]mv, len(ms))
	for _, m := range ms {
		if m.NotReported == "" {
			metrics[m.Name] = mv{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fatalf("result line: %v", err)
	}
	return string(line)
}
