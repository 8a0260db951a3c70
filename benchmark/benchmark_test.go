package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nbschema/internal/core"
)

// The same (seed, workload, trial, client) must give the same operation
// stream, and any other tuple another one.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	stream := func(s *spec, seed int64, trial, client int) []plan {
		g := newGenerator(s, seed, trial, client)
		out := make([]plan, 500)
		for i := range out {
			g.next(&out[i])
		}
		return out
	}
	for i := range specs {
		s := &specs[i]
		base := stream(s, 7, 1, 0)
		if !reflect.DeepEqual(base, stream(s, 7, 1, 0)) {
			t.Errorf("%s: same seed gave two different streams", s.name)
		}
		for name, other := range map[string][]plan{
			"seed": stream(s, 8, 1, 0), "trial": stream(s, 7, 2, 0), "client": stream(s, 7, 1, 1),
		} {
			if reflect.DeepEqual(base, other) {
				t.Errorf("%s: another %s gave the same stream", s.name, name)
			}
		}
	}
	if reflect.DeepEqual(stream(&specs[0], 7, 1, 0), stream(&specs[3], 7, 1, 0)) {
		t.Error("two workloads share a stream")
	}
}

func TestSteadyMixIsHalfReads(t *testing.T) {
	g := newGenerator(findSpec("steady_mixed"), 1, 0, 0)
	var n [nTxnTypes]int
	var p plan
	for i := 0; i < 20000; i++ {
		g.next(&p)
		n[p.typ]++
	}
	for typ, want := range [nTxnTypes]float64{txnUpdate: 0.4, txnRead: 0.5, txnPair: 0.1} {
		if got := float64(n[typ]) / 20000; math.Abs(got-want) > 0.02 {
			t.Errorf("%s transactions: share %.3f, want %.1f", txnTypeNames[typ], got, want)
		}
	}
}

// A percentile is reported only when at least minBeyond samples lie beyond it.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond: enough
		{1001, 0.99, 991, true},
		{1100, 0.99, 1089, true},
		{999, 0.99, 990, false},
		{100, 0.50, 50, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(samples(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %.2f) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// spread rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 7, 3, 21, 15, 9, 18, 5, 30, 11}
	q1, q3 := quartiles(xs) // python: [6.5, 11.5, 18.75]
	if q1 != 6.5 || q3 != 18.75 {
		t.Errorf("quartiles = %v, %v; want 6.5, 18.75", q1, q3)
	}
	if got := spread(xs); math.Abs(got-12.25/11.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 12.25/11.5)
	}
}

// In the open loop a stalled worker's delay is charged to every transaction
// queued behind it, because latency runs from the due time; and the
// generator records its own lateness for every transaction it offers.
func TestOpenLoopChargesStallToQueuedTransactions(t *testing.T) {
	sh := &shared{base: time.Now()}
	sh.win.Store(winBaseline)
	queue := make(chan int64, 4096)
	p := &pacer{}
	paced := make(chan struct{})
	go func() { defer close(paced); p.run(sh, 2000, queue) }()

	const stall = 80 * time.Millisecond
	var lat []int64
	worked := make(chan struct{})
	go func() {
		defer close(worked)
		n := 0
		for due := range queue {
			if n++; n == 10 {
				time.Sleep(stall) // one slow transaction
			}
			lat = append(lat, sh.now()-due)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	sh.win.Store(winStop)
	<-paced
	<-worked

	// 2000 txn/s for 80 ms puts ~160 transactions behind the stalled one;
	// those due in its first half waited at least half of it. A closed loop
	// would have seen one slow transaction.
	slow := 0
	for _, l := range lat {
		if l >= int64(stall/2) {
			slow++
		}
	}
	if slow < 40 {
		t.Errorf("%d of %d transactions were charged at least half the stall; want at least 40", slow, len(lat))
	}
	if len(p.late) == 0 || int64(len(p.late)) != int64(len(lat))+p.refused {
		t.Errorf("generator recorded lateness for %d transactions, %d ran, %d refused", len(p.late), len(lat), p.refused)
	}
	for _, l := range p.late {
		if l < 0 {
			t.Fatalf("transaction offered %d ns before it was due", -l)
		}
	}
	if p.backlogMax < 40 {
		t.Errorf("backlog peaked at %d; the stall should have queued at least 40", p.backlogMax)
	}
}

// A percentile with fewer than minBeyond samples beyond it has no value: the
// report says so, and neither the result line nor -compare gets a number.
func TestPercentileWithTooFewSamplesIsNotReported(t *testing.T) {
	r := &trialResult{setupS: 1, transformS: 1, memPeakMB: 1}
	for _, win := range []int{winBaseline, winDuring} {
		r.winS[win] = 1
		for i := 0; i < 500; i++ { // 5 samples beyond the 99th percentile
			r.lat[win][txnUpdate] = append(r.lat[win][txnUpdate], int64(1000+i))
		}
	}
	wr := workloadReport{Workload: "w", Correct: true, EndToEnd: endToEndMetrics([]*trialResult{r})}
	var line struct{ Metrics map[string]json.RawMessage }
	if err := json.Unmarshal([]byte(wr.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	for _, m := range wr.EndToEnd {
		_, inLine := line.Metrics[m.Name]
		wantReported := !strings.Contains(m.Name, "_p99_")
		if (m.NotReported == "") != wantReported || inLine != wantReported {
			t.Errorf("%s: not_reported=%q, in the result line: %v; want reported=%v", m.Name, m.NotReported, inLine, wantReported)
		}
	}

	path := filepath.Join(t.TempDir(), "set.json")
	if err := appendReport(path, report{Runs: []workloadReport{wr}}); err != nil {
		t.Fatal(err)
	}
	set, err := collect(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.vals["w"]; len(got["fg_p99_us_during"]) != 0 || len(got["fg_p50_us_during"]) != 1 {
		t.Errorf("-compare collected %v", got)
	}
}

// A set of runs is one commit at one size and one -seconds; seeds may differ.
func TestCollectRefusesMixedRuns(t *testing.T) {
	base := env{Commit: "abc", Seconds: 24, Seed: 1}
	for name, c := range map[string]struct {
		change func(*env)
		ok     bool
	}{
		"seed":    {func(e *env) { e.Seed = 2 }, true},
		"quick":   {func(e *env) { e.Quick = true }, false},
		"seconds": {func(e *env) { e.Seconds = 8 }, false},
		"commit":  {func(e *env) { e.Commit = "def" }, false},
	} {
		path := filepath.Join(t.TempDir(), "set.json")
		other := base
		c.change(&other)
		for _, e := range []env{base, other} {
			if err := appendReport(path, report{Env: e}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := collect(path); (err == nil) != c.ok {
			t.Errorf("a set with two values of %s: err = %v, want ok = %v", name, err, c.ok)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	lower := metricDef{name: "fg_p50_us_during", better: "lower", bound: 0.10}
	higher := metricDef{name: "fg_tps_during", better: "higher", bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), verdictOK},
		{lower, steady(100), steady(120), verdictRegressed},
		{lower, steady(100), steady(80), verdictOK},
		{higher, steady(100), steady(80), verdictRegressed},
		{higher, steady(100), steady(120), verdictOK},
		{lower, steady(100), []float64{80, 100, 120, 140, 90}, verdictUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

// BENCHMARK.json at the repository root repeats the workload and metric
// tables; this keeps the two in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", bj.RunSeconds, defaultSeconds)
	}
	var gated []spec
	for _, s := range specs {
		if !s.diagnostic {
			gated = append(gated, s)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated ones in the benchmark", len(bj.Workloads), len(gated))
	}
	for i, w := range bj.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// The smoke test: all four workloads at -quick size, through verification,
// untraced and traced, so that the benchmark cannot rot unnoticed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads twice")
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		for i := range specs {
			cfg := runConfig{seed: 3, seconds: 2, traced: traced, quick: true, outDir: dir}
			wr := runWorkload(&specs[i], cfg)
			if !wr.Correct {
				t.Errorf("%s (traced=%v): %v", wr.Workload, traced, wr.Problems)
			}
			if wr.Attempted == 0 || wr.Failed != 0 {
				t.Errorf("%s: %d attempted, %d failed", wr.Workload, wr.Attempted, wr.Failed)
			}
			if len(wr.EndToEnd) != len(endToEnd) {
				t.Errorf("%s: %d end-to-end metrics, want %d", wr.Workload, len(wr.EndToEnd), len(endToEnd))
			}
			for _, m := range wr.EndToEnd {
				if m.NotReported == "" && m.Value <= 0 {
					t.Errorf("%s: %s = %v", wr.Workload, m.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			if len(wr.PerLayer) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", wr.Workload, len(wr.PerLayer), len(perLayer))
			}
			steady := specs[i].kind == kindSteady
			if got := valueOf(wr.PerLayer, "core.populate_s"); (got > 0) == steady {
				t.Errorf("%s: core.populate_s = %v", wr.Workload, got)
			}
			if got := valueOf(wr.PerLayer, "lock.transfers"); steady && got != 0 {
				t.Errorf("%s: lock.transfers = %v", wr.Workload, got)
			}
			if got := valueOf(wr.PerLayer, "engine.txn_update10_ns"); got <= 0 {
				t.Errorf("%s: engine.txn_update10_ns = %v", wr.Workload, got)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace_"+wr.Workload+".json")); err != nil {
				t.Errorf("%s: span file: %v", wr.Workload, err)
			}
			if !json.Valid([]byte(wr.resultLine())) {
				t.Errorf("%s: result line is not JSON", wr.Workload)
			}
		}
	}
}

var knownFailing = flag.Bool("known-failing", false, "run the tests that record known engine bugs")

// The executable record of an engine bug this benchmark found (README.md,
// Findings): under NonBlockingAbort a transaction that passed the access
// check and then blocked on the sync latch updates the dropped source after
// the drain has ended, and its committed update never reaches T_base. ISSUE 12
// specified NonBlockingAbort for the split workloads; they run under
// NonBlockingCommit until this test passes. It fails at this commit, so it
// runs only on request:
//
//	go test ./benchmark -run NonBlockingAbort -known-failing
func TestNonBlockingAbortKeepsUpdates(t *testing.T) {
	if !*knownFailing {
		t.Skip("known to fail: NonBlockingAbort loses committed updates (ISSUE 12 finding); run with -known-failing")
	}
	defer func(s core.SyncStrategy) { syncStrategy = s }(syncStrategy)
	syncStrategy = core.NonBlockingAbort
	for seed := int64(1); seed <= 6; seed++ {
		wr := runWorkload(findSpec("split_closed"), runConfig{seed: seed, seconds: 6, outDir: t.TempDir()})
		if !wr.Correct {
			t.Fatalf("seed %d: %v", seed, wr.Problems)
		}
	}
}
