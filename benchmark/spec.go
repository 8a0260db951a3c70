package main

import (
	"time"

	"nbschema/internal/core"
)

// kind selects the schema (and transformation) a workload runs.
type kind int

const (
	kindSplit  kind = iota // T(id,payload,grp,info) + dummy, vertical split of T
	kindFOJ                // R(id,payload,jv), S(jv,info) + dummy, RS = R ⟗ S
	kindSteady             // the split tables, no transformation
)

// spec is one benchmark workload. Sizes are the final ones; README.md says
// how they were chosen.
type spec struct {
	name string
	why  string
	kind kind

	// rows sizes T (split, steady) or R (FOJ) and the dummy table; groups is
	// the number of distinct split values (FD grp → info); sRows sizes S, and
	// R's jv ranges over 2·sRows values so half of R has no join match.
	rows, groups, sRows int

	trials int
	// diagnostic keeps a workload out of BENCHMARK.json, and so out of the
	// driver's gate: the benchmark runs and reports it like the others, but
	// some of its end-to-end metrics do not repeat within the largest bound
	// the contract allows (README.md, Spread).
	diagnostic bool
	// srcFrac is the share of operations aimed at the table(s) under
	// transformation; the rest go to dummy.
	srcFrac float64
	// toggleFrac is the share of source operations that insert or delete a
	// row in the client's private key slab instead of updating.
	toggleFrac float64
	// hotFrac of the operations aim at the first hotKeys share of the keys.
	hotFrac, hotKeys float64

	// open selects the open-loop generator at rate txn/s; otherwise clients
	// run closed-loop with no think time.
	open bool
	rate float64

	priority float64
	// expectRun is what Transformation.Run may take on the reference host in
	// one of its slow minutes, about twice the usual time; the
	// Run deadline is 3× this.
	expectRun time.Duration
}

// clients is the number of client goroutines: the host's core count, capped
// at 2 so that numbers from a larger host stay comparable.
const clients = 2

// opsPerTxn is the paper's transaction size.
const opsPerTxn = 10

// slabSize is the size of each client's private insert/delete key range.
const slabSize = 64

// logCap bounds a trial's log: the WAL is memory-only and never truncated,
// so a runaway trial would otherwise end in the OOM killer.
const logCap = 3_000_000

var specs = []spec{
	{
		name: "split_closed",
		why:  "Fig. 4(a)/(c): population is ~85% of transform_s and runs parallel and compacted, so core population and storage scans do the background work",
		kind: kindSplit, rows: 500_000, groups: 50_000, trials: 4,
		srcFrac: 0.2, toggleFrac: 0.1,
		priority: 1.0, expectRun: 6 * time.Second,
	},
	{
		name: "foj_closed",
		why:  "Fig. 4(c) FOJ: propagation is serial, uncompacted and index-driven (about half of transform_s); NonBlockingCommit mirrors locks after sync",
		kind: kindFOJ, rows: 200_000, sRows: 80_000, trials: 4,
		srcFrac:  0.5,
		priority: 1.0, expectRun: 7 * time.Second,
	},
	{
		name: "steady_mixed",
		why:  "no transformation: core does nothing, so a core change must leave every row unchanged; reads run beside writes so a trade between them shows",
		kind: kindSteady, rows: 500_000, groups: 50_000, trials: 4,
		srcFrac: 0.2, hotFrac: 0.2, hotKeys: 0.01,
	},
	{
		name: "split_open",
		why:  "open loop at a quarter of capacity: CPU is not saturated, so interference shows as latch/lock/WAL waiting, and latency is timed from the due time",
		kind: kindSplit, rows: 250_000, groups: 25_000, trials: 2, diagnostic: true,
		srcFrac: 0.2, toggleFrac: 0.1,
		open: true, rate: 4000,
		priority: 0.25, expectRun: 8 * time.Second,
	},
}

// syncStrategy is how every transformation here synchronizes. ISSUE 12 asked
// for NonBlockingAbort on the split workloads, but the engine loses committed
// updates under it (README.md, Findings), so every workload uses
// NonBlockingCommit. It is a variable only so that
// TestNonBlockingAbortKeepsUpdates, the executable record of that bug, can
// run a split under NonBlockingAbort.
var syncStrategy = core.NonBlockingCommit

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// quick shrinks a workload to smoke-test size: the same code paths, tables
// small enough that all four workloads finish in a few seconds.
func (s spec) quick() spec {
	s.rows, s.groups = 4000, 400
	if s.kind == kindFOJ {
		s.sRows = 1600
	}
	s.trials = 1
	if s.open {
		s.rate = 1000
	}
	return s
}

// windows are the lengths of a trial's timed windows, derived from the
// -seconds budget: each trial gets its share of it, four tenths of which is
// the baseline window; the transformation takes what the table size makes
// it take, which is about as long.
type windows struct {
	warm, baseline, after time.Duration
}

func (s spec) windowsFor(seconds float64) windows {
	per := time.Duration(seconds / float64(s.trials) * float64(time.Second))
	return windows{warm: per / 10, baseline: per * 4 / 10, after: per / 10}
}
