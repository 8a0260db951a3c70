// Package workload implements the paper's evaluation workload (Section 6):
// closed-loop clients, each transaction updating 10 records under record
// locks, with a configurable fraction of updates aimed at the tables under
// transformation and the rest at a dummy table to keep total load constant.
// 100% workload is defined, as in the paper, as the number of concurrent
// transactions that maximizes throughput; lower workloads use fewer clients.
package workload

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/obs"
	"nbschema/internal/value"
)

// Target is one table the workload updates.
type Target struct {
	// Table is the table name.
	Table string
	// Fallback is used after the table is dropped by a transformation
	// (post-switchover the application switches to the new table).
	Fallback string
	// Keys is the key-space size; records 0..Keys-1 must exist.
	Keys int64
	// Col is the payload column updated.
	Col string
	// Weight is the relative probability of one update hitting this
	// target. The paper's "20% of updates on T" is Weight 0.2 on T and 0.8
	// on the dummy table.
	Weight float64
	// MakeRow builds a full row for key i, enabling insert/delete churn on
	// this target: when set (and Config.InsertFrac > 0), a fraction of this
	// target's operations toggle rows in a private per-client key range
	// above Keys instead of updating, so a propagating transformation sees
	// inserts and deletes, not just updates. Rows must satisfy whatever
	// functional dependencies the transformation assumes.
	MakeRow func(i int64) value.Tuple
}

// toggleSlab is the size of each client's private insert/delete key range:
// client c of runner epoch e toggles keys in
// [Keys + e·epochStride + c·toggleSlab, ... + toggleSlab). Private ranges
// keep the committed-present bookkeeping client-local and insert/delete
// conflicts impossible; the per-Runner epoch keeps successive runners on the
// same database (calibration probes, then the measured run) from colliding
// with rows a previous runner left committed.
const (
	toggleSlab  = 64
	epochStride = 1 << 20
)

// slabEpoch numbers Runner instances within the process for slab placement.
var slabEpoch atomic.Int64

// Config describes a workload.
type Config struct {
	DB *engine.DB
	// Targets to update; weights are normalized.
	Targets []Target
	// UpdatesPerTxn is the number of record updates per transaction
	// (paper: 10).
	UpdatesPerTxn int
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Think pauses each client between transactions (0 = none).
	Think time.Duration
	// Seed for deterministic key/target choice (clients derive their own).
	Seed int64
	// InsertFrac is the fraction of operations on MakeRow-capable targets
	// that insert or delete a row (toggling keys in the client's private
	// range) instead of updating one. 0 keeps the pure-update workload.
	InsertFrac float64
	// Obs optionally mirrors workload progress into a metrics registry as
	// "workload.txn", "workload.abort" counters and a "workload.latency"
	// histogram, so a telemetry-history sampler over the same registry sees
	// client-side throughput next to the engine's own counters. Nil keeps
	// the runner's private counters only.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.UpdatesPerTxn <= 0 {
		c.UpdatesPerTxn = 10
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	return c
}

// Counters is a monotonic snapshot of workload progress. Subtracting two
// snapshots yields the stats of the window between them.
type Counters struct {
	Txns   uint64
	Aborts uint64
	// Deadlocks counts aborts caused by the waits-for cycle detector
	// choosing the transaction as a victim; Timeouts counts aborts from lock
	// waits that ran out the clock; Conflicts counts first-committer-wins
	// write-write conflicts under snapshot isolation (all subsets of
	// Aborts).
	Deadlocks uint64
	Timeouts  uint64
	Conflicts uint64
	LatencyNs uint64
	// Latency is the response-time histogram at snapshot time; subtracting
	// two snapshots' histograms yields the window's distribution.
	Latency obs.HistogramSnapshot
	At      time.Time
}

// Stats summarizes a measurement window.
type Stats struct {
	Txns       uint64
	Aborts     uint64
	Deadlocks  uint64
	Timeouts   uint64
	Conflicts  uint64
	Duration   time.Duration
	Throughput float64       // committed transactions per second
	MeanRT     time.Duration // mean response time of committed transactions
	// Response-time percentiles of committed transactions over the window
	// (bucketed; zero when the window committed nothing).
	P50, P95, P99 time.Duration
}

// Between computes the stats of the window from a to b.
func Between(a, b Counters) Stats {
	d := b.At.Sub(a.At)
	s := Stats{
		Txns:      b.Txns - a.Txns,
		Aborts:    b.Aborts - a.Aborts,
		Deadlocks: b.Deadlocks - a.Deadlocks,
		Timeouts:  b.Timeouts - a.Timeouts,
		Conflicts: b.Conflicts - a.Conflicts,
		Duration:  d,
	}
	if d > 0 {
		s.Throughput = float64(s.Txns) / d.Seconds()
	}
	if s.Txns > 0 {
		s.MeanRT = time.Duration((b.LatencyNs - a.LatencyNs) / s.Txns)
	}
	win := b.Latency.Sub(a.Latency)
	if win.Count > 0 {
		s.P50 = win.P50()
		s.P95 = win.P95()
		s.P99 = win.P99()
	}
	return s
}

// Runner drives a workload until stopped.
type Runner struct {
	cfg Config

	txns      atomic.Uint64
	aborts    atomic.Uint64
	deadlocks atomic.Uint64
	timeouts  atomic.Uint64
	conflicts atomic.Uint64
	latencyNs atomic.Uint64
	lat       *obs.Histogram

	// Registry mirrors (nil handles are no-ops; see Config.Obs).
	mTxns   *obs.Counter
	mAborts *obs.Counter
	mLat    *obs.Histogram

	cancel context.CancelFunc
	wg     sync.WaitGroup
	epoch  int64 // slab namespace of this runner's insert/delete toggles

	errMu sync.Mutex
	err   error
}

// Start launches the workload clients.
func Start(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{cfg: cfg, cancel: cancel, lat: obs.NewHistogram(),
		epoch: slabEpoch.Add(1) - 1}
	r.mTxns = cfg.Obs.Counter("workload.txn")
	r.mAborts = cfg.Obs.Counter("workload.abort")
	r.mLat = cfg.Obs.Histogram("workload.latency")
	for i := 0; i < cfg.Clients; i++ {
		r.wg.Add(1)
		go r.client(ctx, i, cfg.Seed+int64(i)*7919)
	}
	return r
}

// Stop terminates the clients and waits for them; it returns the first
// non-retryable error a client hit, if any.
func (r *Runner) Stop() error {
	r.cancel()
	r.wg.Wait()
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// Snapshot returns the current progress counters.
func (r *Runner) Snapshot() Counters {
	return Counters{
		Txns:      r.txns.Load(),
		Aborts:    r.aborts.Load(),
		Deadlocks: r.deadlocks.Load(),
		Timeouts:  r.timeouts.Load(),
		Conflicts: r.conflicts.Load(),
		LatencyNs: r.latencyNs.Load(),
		Latency:   r.lat.Snapshot(),
		At:        time.Now(),
	}
}

func (r *Runner) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.cancel()
}

// clientState is one client's private insert/delete bookkeeping: the
// committed occupancy of its key slab per target, and the toggles of the
// in-flight transaction, which are rolled back if it aborts.
type clientState struct {
	present [][]bool // per-target slab occupancy (nil = toggles disabled)
	pending []pendingToggle
}

type pendingToggle struct {
	target, slot int
}

func (st *clientState) rollback() {
	for _, p := range st.pending {
		st.present[p.target][p.slot] = !st.present[p.target][p.slot]
	}
	st.pending = st.pending[:0]
}

// client is one closed-loop client: begin, update UpdatesPerTxn random
// records, commit; aborted transactions are retried as fresh transactions.
func (r *Runner) client(ctx context.Context, id int, seed int64) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(seed))
	// Per-client view of target tables (fallback swaps are client-local,
	// mirroring each application instance switching over on its own).
	targets := append([]Target(nil), r.cfg.Targets...)
	var totalWeight float64
	for _, tg := range targets {
		totalWeight += tg.Weight
	}
	st := &clientState{present: make([][]bool, len(targets))}
	if r.cfg.InsertFrac > 0 {
		for i, tg := range targets {
			if tg.MakeRow != nil {
				st.present[i] = make([]bool, toggleSlab)
			}
		}
	}

	for ctx.Err() == nil {
		if r.cfg.Think > 0 {
			time.Sleep(r.cfg.Think)
		}
		start := time.Now()
		tx := r.cfg.DB.Begin()
		err := r.runTxn(tx, rng, id, targets, totalWeight, st)
		if err == nil {
			err = tx.Commit()
		}
		if err == nil {
			rt := time.Since(start)
			st.pending = st.pending[:0] // toggles are now committed state
			r.txns.Add(1)
			r.latencyNs.Add(uint64(rt.Nanoseconds()))
			r.lat.Observe(rt)
			r.mTxns.Add(1)
			r.mLat.Observe(rt)
			continue
		}
		st.rollback()
		if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
			r.fail(aerr)
			return
		}
		r.aborts.Add(1)
		r.mAborts.Add(1)
		switch {
		case isDeadlock(err):
			r.deadlocks.Add(1)
		case isLockTimeout(err):
			r.timeouts.Add(1)
		case isWriteConflict(err):
			r.conflicts.Add(1)
		}
		// Back off briefly after a failure: a tight retry loop against a
		// closed table would flood the log with begin/abort records.
		time.Sleep(50 * time.Microsecond)
		if retryable(err) {
			// A transformation switchover may have closed or dropped a
			// source table: move this client to the fallback.
			if errors.Is(err, engine.ErrNoAccess) || errors.Is(err, catalog.ErrNotFound) {
				for i := range targets {
					if targets[i].Fallback != "" {
						targets[i].Table = targets[i].Fallback
						// The fallback usually lacks the source's full column
						// set; stop inserting rows shaped for the old table.
						st.present[i] = nil
					}
				}
			}
			continue
		}
		r.fail(err)
		return
	}
}

func (r *Runner) runTxn(tx *engine.Txn, rng *rand.Rand, id int, targets []Target, totalWeight float64, st *clientState) error {
	for i := 0; i < r.cfg.UpdatesPerTxn; i++ {
		ti := pickIndex(rng, targets, totalWeight)
		tg := &targets[ti]
		if st.present[ti] != nil && rng.Float64() < r.cfg.InsertFrac {
			// Toggle a key in this client's private slab: delete it if the
			// committed state has it, insert it otherwise. The optimistic
			// present-flip is undone by rollback() if the txn aborts.
			slot := rng.Intn(toggleSlab)
			key := tg.Keys + r.epoch*epochStride + int64(id)*toggleSlab + int64(slot)
			var err error
			if st.present[ti][slot] {
				err = tx.Delete(tg.Table, value.Tuple{value.Int(key)})
			} else {
				err = tx.Insert(tg.Table, tg.MakeRow(key))
			}
			if err != nil {
				return err
			}
			st.present[ti][slot] = !st.present[ti][slot]
			st.pending = append(st.pending, pendingToggle{target: ti, slot: slot})
			continue
		}
		key := value.Tuple{value.Int(rng.Int63n(tg.Keys))}
		if err := tx.Update(tg.Table, key, []string{tg.Col}, value.Tuple{value.Int(rng.Int63())}); err != nil {
			return err
		}
	}
	return nil
}

func pickIndex(rng *rand.Rand, targets []Target, totalWeight float64) int {
	x := rng.Float64() * totalWeight
	for i := range targets {
		x -= targets[i].Weight
		if x <= 0 {
			return i
		}
	}
	return len(targets) - 1
}

// retryable reports whether a transaction failure is part of normal
// operation under a running transformation.
func retryable(err error) bool {
	return errors.Is(err, engine.ErrTxnDoomed) ||
		errors.Is(err, engine.ErrNoAccess) ||
		errors.Is(err, engine.ErrTxnDone) ||
		errors.Is(err, catalog.ErrNotFound) ||
		isLockTimeout(err) ||
		isDeadlock(err) ||
		isWriteConflict(err)
}

// Measure runs the workload for the given duration and returns its stats.
func Measure(cfg Config, d time.Duration) (Stats, error) {
	r := Start(cfg)
	before := r.Snapshot()
	time.Sleep(d)
	after := r.Snapshot()
	err := r.Stop()
	return Between(before, after), err
}

// Calibrate finds the client count (up to maxClients, doubling) that
// maximizes throughput — the paper's definition of 100% workload. Each probe
// runs for probe duration.
func Calibrate(cfg Config, maxClients int, probe time.Duration) (int, error) {
	best, bestTput := 1, 0.0
	for n := 1; n <= maxClients; n *= 2 {
		c := cfg
		c.Clients = n
		s, err := Measure(c, probe)
		if err != nil {
			return 0, err
		}
		if s.Throughput > bestTput {
			best, bestTput = n, s.Throughput
		}
	}
	return best, nil
}

// ClientsFor scales a calibrated 100% client count down to the given
// workload percentage (at least 1 client).
func ClientsFor(calibrated int, percent int) int {
	n := calibrated * percent / 100
	if n < 1 {
		n = 1
	}
	return n
}
