package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"nbschema/internal/core"
	"nbschema/internal/engine"
	"nbschema/internal/obs"
)

// queueCap is the open-loop queue's capacity: 16 s of offered load at the
// reference rate. A transaction that finds it full is refused and counted
// as failed.
const queueCap = 1 << 16

// pacer is the open-loop generator: it offers transactions on a fixed
// schedule whatever the workers do, and records how late it ran itself.
type pacer struct {
	late       []int64 // per offered transaction: enqueue time − due time, ns
	backlogMax int
	refused    int64
}

// paceTick is the generator's clock: the transactions of one tick (four at
// 4000 txn/s) are all due at the tick and arrive together.
const paceTick = time.Millisecond

// run offers rate transactions per second until the trial stops, then
// closes the queue. A transaction's queue entry is its due time.
func (p *pacer) run(sh *shared, rate float64, queue chan<- int64) {
	// The generator owns a thread and sleeps in the kernel (osSleep). After
	// offering a tick's transactions it yields, so that the workers it just
	// woke run at once instead of waiting for this thread to block.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	perTick := rate * paceTick.Seconds()
	due := 0.0 // transactions due but not yet offered, with the fraction carried over
	next := sh.now() + int64(paceTick)
	for sh.win.Load() != winStop {
		osSleep(time.Duration(next - sh.now()))
		now := sh.now()
		for ; next <= now; next += int64(paceTick) {
			for due += perTick; due >= 1; due-- {
				select {
				case queue <- next:
				default:
					p.refused++
				}
				p.late = append(p.late, now-next)
			}
		}
		if n := len(queue); n > p.backlogMax {
			p.backlogMax = n
		}
		runtime.Gosched()
	}
	close(queue)
}

// mark is what is read off the engine and the runtime at a window boundary.
type mark struct {
	at       int64
	walEnd   int64
	walBytes int64
	gcCycles uint64
	memMB    float64
	reg      obs.Snapshot // traced runs only
}

// readRuntime returns the collector's completed cycles and the memory the Go
// runtime holds from the operating system right now: everything it has
// mapped less what it has given back (MemStats.Sys − HeapReleased). Unlike
// Sys alone this shrinks again once a dropped database has been collected and
// released, so a trial's peak is its own and not the process's high-water
// mark.
func readRuntime() (gcCycles uint64, memMB float64) {
	sample := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(sample)
	for _, s := range sample {
		if s.Value.Kind() != metrics.KindUint64 {
			return 0, 0
		}
	}
	return sample[0].Value.Uint64(), float64(sample[1].Value.Uint64()-sample[2].Value.Uint64()) / (1 << 20)
}

func takeMark(sh *shared, reg *obs.Registry) mark {
	m := mark{at: sh.now(), walEnd: int64(sh.db.Log().End()), walBytes: sh.db.Log().ApproxBytes()}
	m.gcCycles, m.memMB = readRuntime()
	if reg != nil {
		m.reg = reg.Snapshot()
	}
	return m
}

// trialResult is everything one trial measured.
type trialResult struct {
	setupS     float64
	transformS float64
	winS       [nWindows]float64
	lat        [nWindows][nTxnTypes][]int64 // all clients
	txns       int64                        // committed logical transactions, all windows
	attempts   int64                        // engine transactions begun
	failed     int64                        // logical transactions that never committed
	retries    [nRetryKinds]int64
	memPeakMB  float64 // highest readRuntime memory seen at a mark or at the end
	logRecords int

	switched bool
	runErr   error
	problems []string // verification mismatches

	core  core.Metrics
	rules map[string]int64
	marks [4]mark // start and end of the baseline, start and end of during

	pace         *pacer
	tracers      []*tracer
	sink         *phaseSink
	runAt        int64
	commitLagP99 time.Duration
}

// runTrial runs one trial of a workload on a fresh database: load, warm up,
// baseline window, transformation (the during window), after window, stop,
// verify.
func runTrial(s *spec, seed int64, trial int, w windows, traced bool) *trialResult {
	res := &trialResult{}

	// The engine runs with its default options: no knob is set, so a later
	// change of a default shows. A traced run adds only the registry.
	var opts engine.Options
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	t0 := time.Now()
	db := engine.New(opts)
	if err := s.load(db); err != nil {
		res.runErr = fmt.Errorf("set-up: %w", err)
		return res
	}
	res.setupS = time.Since(t0).Seconds()

	sh := &shared{spec: s, db: db, base: time.Now()}
	expect := int(30_000 * w.baseline.Seconds())
	if s.open {
		expect = int(s.rate * 2 * w.baseline.Seconds())
	}
	cl := make([]*client, clients)
	for i := range cl {
		var tr *tracer
		if traced {
			tr = newTracer(sh, i)
			res.tracers = append(res.tracers, tr)
		}
		cl[i] = newClient(sh, i, seed, trial, expect, tr)
	}
	var wg sync.WaitGroup
	if s.open {
		res.pace = &pacer{}
		queue := make(chan int64, queueCap)
		wg.Add(1)
		go func() { defer wg.Done(); res.pace.run(sh, s.rate, queue) }()
		for _, c := range cl {
			wg.Add(1)
			go func(c *client) { defer wg.Done(); c.runOpen(queue) }(c)
		}
	} else {
		for _, c := range cl {
			wg.Add(1)
			go func(c *client) { defer wg.Done(); c.runClosed() }(c)
		}
	}

	// Each timed window starts right after a full collection, with the
	// clients running: where a window falls in the collector's cycle is then
	// the same in every trial, instead of deciding by chance whether the
	// window contains zero, one or two half-second mark phases.
	time.Sleep(w.warm)
	runtime.GC()
	sh.win.Store(winBaseline)
	res.marks[0] = takeMark(sh, reg)
	time.Sleep(w.baseline)
	sh.win.Store(winWarm)
	res.marks[1] = takeMark(sh, reg)
	runtime.GC()
	sh.win.Store(winDuring)
	res.marks[2] = takeMark(sh, reg)
	res.runAt = res.marks[2].at
	if s.kind == kindSteady {
		// The control window: same length as the baseline, nothing running.
		time.Sleep(w.baseline)
		res.transformS = float64(sh.now()-res.runAt) / 1e9
	} else {
		res.runErr = runTransformation(s, sh, res, traced)
		res.transformS = float64(sh.now()-res.runAt) / 1e9
		res.switched = res.runErr == nil
	}
	sh.win.Store(winAfter)
	res.marks[3] = takeMark(sh, reg)
	if s.kind != kindSteady {
		time.Sleep(w.after)
	}
	end := sh.now()
	sh.win.Store(winStop)

	wg.Wait()
	_, res.memPeakMB = readRuntime()
	for _, m := range res.marks {
		res.memPeakMB = max(res.memPeakMB, m.memMB)
	}

	res.winS[winBaseline] = float64(res.marks[1].at-res.marks[0].at) / 1e9
	res.winS[winDuring] = float64(res.marks[3].at-res.marks[2].at) / 1e9
	res.winS[winAfter] = float64(end-res.marks[3].at) / 1e9
	oracles := make([]*clientOracle, len(cl))
	for i, c := range cl {
		oracles[i] = c.orc
		res.attempts += c.attempts
		for k, n := range c.retries {
			res.retries[k] += n
		}
		if c.err != nil {
			res.failed++
			if res.runErr == nil {
				res.runErr = fmt.Errorf("client %d: %w", i, c.err)
			}
		}
		for win := range c.lat {
			for typ := range c.lat[win] {
				res.lat[win][typ] = append(res.lat[win][typ], c.lat[win][typ]...)
				res.txns += int64(len(c.lat[win][typ]))
			}
		}
	}
	if s.open {
		res.failed += res.pace.refused
	}
	if reg != nil {
		res.commitLagP99 = reg.Histogram("core.commit_lag").Snapshot().Quantile(0.99)
	}
	res.logRecords = db.Log().Len()
	res.problems = verify(s, db, oracles, res.switched)

	_, mem := readRuntime()
	res.memPeakMB = max(res.memPeakMB, mem)
	sh.db = nil // the spans and the sink keep sh; let the database go
	return res
}

// runTransformation runs the workload's schema change to completion under a
// deadline of 3× its expected time. A log that outgrows logCap cancels it
// too: both end as a failed run, not a hang or an OOM kill.
func runTransformation(s *spec, sh *shared, res *trialResult, traced bool) error {
	var cfg core.Config
	if traced {
		res.sink = &phaseSink{sh: sh}
		cfg.Sink = res.sink
	}
	tr, err := s.transformation(sh.db, cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*s.expectRun)
	defer cancel()
	var capHit atomic.Bool
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if sh.db.Log().Len() > logCap {
					capHit.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	err = tr.Run(ctx)
	cancel()
	<-watched
	if res.sink != nil {
		res.sink.mu.Lock()
		res.sink.closePhase(sh.now())
		res.sink.mu.Unlock()
	}
	res.core = tr.Metrics()
	res.rules = tr.RuleApplications()
	if capHit.Load() {
		return fmt.Errorf("log passed %d records before switchover: %w", logCap, err)
	}
	if err != nil {
		return fmt.Errorf("transformation did not reach switchover within %v: %w", 3*s.expectRun, err)
	}
	return nil
}
