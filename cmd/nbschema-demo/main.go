// Command nbschema-demo walks through a live, non-blocking split
// transformation: a customer table is normalized into (customer, place)
// while a stream of transactions keeps updating it, narrating each phase of
// the framework as it happens.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nbschema"
)

func main() {
	var (
		rows      = flag.Int("rows", 20000, "customer rows")
		priority  = flag.Float64("priority", 0.2, "transformation priority (0..1]")
		clients   = flag.Int("clients", 4, "concurrent update clients")
		metrics   = flag.String("metrics", "", "serve metrics and /debug over HTTP on this address (e.g. :8080)")
		history   = flag.Duration("history", 200*time.Millisecond, "telemetry history sampling interval (0 disables history and health)")
		pprofOn   = flag.Bool("pprof", true, "mount /debug/pprof/ on the metrics server")
		flightDir = flag.String("flightdir", "", "capture flight-recorder bundles into this directory on health CRITs and stalls")
		lagSLO    = flag.Duration("lag-slo", 100*time.Millisecond, "freshness SLO: watchdog warns when propagation lag exceeds it; the status line reports switchover readiness against it (0 disables)")
		si        = flag.Bool("si", false, "enable MVCC snapshot-isolation reads: lock-free snapshot readers run alongside the update clients and the initial population scans a consistent snapshot")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	reg := nbschema.NewMetricsRegistry()
	db := nbschema.Open(nbschema.Options{
		Metrics:           reg,
		HistoryInterval:   *history,
		HealthChecks:      *history > 0,
		FlightRecorderDir: *flightDir,
		LagSLO:            *lagSLO,
		Timeline:          *metrics != "", // /debug/timeline needs the span recorder
		SnapshotReads:     *si,
	})
	defer db.Close()
	if *metrics != "" {
		go func() {
			log.Printf("metrics: http://%s/metrics (append ?format=json for JSON)", *metrics)
			log.Printf("debug:   http://%s/debug — txns, locks, waitsfor (?format=dot), transform, wal, history, health, lag, timeline", *metrics)
			mux := http.NewServeMux()
			mux.Handle("/metrics", nbschema.MetricsHandler(reg))
			h := nbschema.DebugHandlerOpts(db, nbschema.DebugOptions{Pprof: *pprofOn})
			mux.Handle("/debug", h)
			mux.Handle("/debug/", h)
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	must(db.CreateTable("customer", []nbschema.Column{
		{Name: "id", Type: nbschema.Int},
		{Name: "name", Type: nbschema.String, Nullable: true},
		{Name: "zip", Type: nbschema.Int},
		{Name: "city", Type: nbschema.String, Nullable: true},
	}, "id"))

	log.Printf("loading %d customers ...", *rows)
	tx := db.Begin()
	for i := 0; i < *rows; i++ {
		zip := 1000 + i%500
		must(tx.Insert("customer", i, fmt.Sprintf("customer-%d", i), zip, cityOf(zip)))
	}
	must(tx.Commit())

	// A stream of user transactions, each updating 10 customers, runs for
	// the entire transformation — this is the traffic the method must not
	// block.
	var committed, aborted, conflicts, snapReads atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			table := "customer"
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				var err error
				for i := 0; i < 10 && err == nil; i++ {
					err = tx.Update(table, []any{rng.Intn(*rows)},
						[]string{"name"}, []any{fmt.Sprintf("renamed-%d", rng.Int())})
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					_ = tx.Abort()
					aborted.Add(1)
					if errors.Is(err, nbschema.ErrWriteConflict) {
						conflicts.Add(1) // first-committer-wins loser; retried
					}
					if errors.Is(err, nbschema.ErrNoAccess) || errors.Is(err, nbschema.ErrNoSuchTable) {
						table = "customer_base" // the application switches over
						log.Printf("client: switched to %s", table)
					}
					continue
				}
				committed.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}(int64(c))
	}

	// With -si, lock-free snapshot readers run alongside the writers: each
	// opens an MVCC snapshot, reads a consistent batch of customers without
	// taking a single lock, and closes it. They never block a writer and
	// never wait on a writer's locks; like every operation they pause for
	// the switchover latch window.
	if *si {
		log.Printf("snapshot readers: 2 clients reading via MVCC snapshots (no locks)")
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				table := "customer"
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap, err := db.Snapshot()
					if err != nil {
						log.Printf("snapshot reader: %v", err)
						return
					}
					for i := 0; i < 10; i++ {
						if _, err := snap.Get(table, rng.Intn(*rows)); err != nil {
							if errors.Is(err, nbschema.ErrNoAccess) || errors.Is(err, nbschema.ErrNoSuchTable) {
								table = "customer_base"
								log.Printf("snapshot reader: switched to %s", table)
							}
							break
						}
						snapReads.Add(1)
					}
					_ = snap.Close()
					time.Sleep(100 * time.Microsecond)
				}
			}(int64(1000 + c))
		}
	}

	tr, err := db.Split(nbschema.SplitSpec{
		Source: "customer", Left: "customer_base", Right: "place",
		SplitOn: []string{"zip"}, RightOnly: []string{"city"},
	}, nbschema.TransformOptions{Priority: *priority, SyncThreshold: 32})
	must(err)

	popMode := "fuzzy, lock-free"
	if *si {
		popMode = "consistent snapshot, lock-free"
	}
	log.Printf("starting non-blocking split (priority %.0f%%): customer → customer_base ⋈ place", *priority*100)
	done := make(chan error, 1)
	go func() { done <- tr.Run(context.Background()) }()

	last := nbschema.PhaseIdle
	lastHealth := nbschema.HealthOK
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	lineLen := 0
	clearLine := func() {
		if lineLen > 0 {
			fmt.Printf("\r%*s\r", lineLen, "")
			lineLen = 0
		}
	}
	for running := true; running; {
		select {
		case err := <-done:
			clearLine()
			must(err)
			running = false
		case <-ticker.C:
			pr := tr.Progress()
			if pr.Phase != last {
				clearLine()
				log.Printf("phase: %v  (committed so far: %d)", pr.Phase, committed.Load())
				last = pr.Phase
			}
			line := progressLine(pr, *lagSLO, popMode)
			if wd := db.Health(); wd != nil {
				rep := wd.Report()
				if rep.Status != lastHealth {
					clearLine()
					log.Printf("health: %v → %v  %s", lastHealth, rep.Status, healthDetail(rep))
					lastHealth = rep.Status
				}
				line += "  health " + rep.Status.String()
			}
			pad := lineLen - len(line)
			if pad < 0 {
				pad = 0
			}
			fmt.Printf("\r%s%*s", line, pad, "")
			lineLen = len(line)
		}
	}
	close(stop)
	wg.Wait()

	m := tr.Metrics()
	base, _ := db.Rows("customer_base")
	place, _ := db.Rows("place")
	fmt.Println()
	fmt.Printf("transformation done: %v total\n", m.TotalDuration.Round(time.Millisecond))
	fmt.Printf("  initial image:     %d rows in %v\n", m.InitialImageRows, m.PopulationDuration.Round(time.Millisecond))
	fmt.Printf("  log propagation:   %d records over %d iterations in %v\n",
		m.RecordsApplied, m.Iterations, m.PropagationDuration.Round(time.Millisecond))
	fmt.Printf("  sync latch window: %v (the only pause user transactions saw)\n", m.SyncLatchDuration)
	fmt.Printf("  forced aborts:     %d of %d+ concurrent transactions\n", m.DoomedTxns, committed.Load())
	fmt.Printf("result: customer_base=%d rows, place=%d rows\n", base, place)
	fmt.Printf("user transactions:  %d committed, %d retried/aborted — never blocked\n",
		committed.Load(), aborted.Load())
	if *si {
		fmt.Printf("snapshot isolation: %d lock-free snapshot reads, %d write-write conflicts retried — readers never blocked\n",
			snapReads.Load(), conflicts.Load())
	}

	if rules := tr.RuleApplications(); len(rules) > 0 {
		fmt.Printf("propagation rules:  %v\n", rules)
	}
	trace := tr.Trace()
	fmt.Printf("trace:              %d events buffered (%d dropped)\n", len(trace), tr.TraceDropped())
	for _, ev := range trace {
		switch ev.KindName {
		case "sync-latched", "switchover":
			fmt.Printf("  %-12s %s\n", ev.KindName, traceDetail(ev))
		}
	}
}

// healthDetail names the checks that are not OK in a report.
func healthDetail(rep nbschema.HealthReport) string {
	s := ""
	for _, c := range rep.Checks {
		if c.Status == nbschema.HealthOK {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s=%v", c.Name, c.Status)
		if c.Message != "" {
			s += " (" + c.Message + ")"
		}
	}
	if s == "" {
		return "all checks ok"
	}
	return s
}

// progressLine renders one live status line from a Progress snapshot,
// including the freshness watermark and switchover readiness against slo.
func progressLine(pr nbschema.Progress, slo time.Duration, popMode string) string {
	switch pr.Phase {
	case nbschema.PhasePopulating:
		return fmt.Sprintf("  populating: %d rows copied (%s)%s",
			pr.InitialImageRows, popMode, lagNote(pr, slo))
	case nbschema.PhasePropagating:
		eta := "eta —"
		if pr.ETAValid {
			eta = "eta " + pr.ETA.Round(time.Millisecond).String()
		}
		return fmt.Sprintf("  propagating: iter %d  applied %d  backlog %d  %.0f rec/s  %s%s",
			pr.Iteration, pr.RecordsApplied, pr.Remaining, pr.Rate, eta, lagNote(pr, slo))
	default:
		return fmt.Sprintf("  %v: %v elapsed", pr.Phase, pr.Elapsed.Round(time.Millisecond))
	}
}

// lagNote renders the lag watermark and, when an SLO is set, whether an
// application could switch over now without reading stale targets.
func lagNote(pr nbschema.Progress, slo time.Duration) string {
	s := fmt.Sprintf("  lag %v", pr.Lag.Round(time.Millisecond))
	switch {
	case slo <= 0:
	case pr.Lag <= slo:
		s += " (switchover ready)"
	default:
		s += fmt.Sprintf(" (> SLO %v)", slo)
	}
	return s
}

func traceDetail(ev nbschema.TraceEvent) string {
	s := fmt.Sprintf("t+%v", ev.Time.Format("15:04:05.000"))
	if ev.Duration > 0 {
		s += fmt.Sprintf("  latched %v", ev.Duration)
	}
	if ev.Doomed > 0 {
		s += fmt.Sprintf("  doomed %d", ev.Doomed)
	}
	if len(ev.Tables) > 0 {
		s += fmt.Sprintf("  %v", ev.Tables)
	}
	return s
}

func cityOf(zip int) string {
	cities := []string{"trondheim", "oslo", "bergen", "tromsø", "bodø"}
	return cities[zip%len(cities)]
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbschema-demo:", err)
		os.Exit(1)
	}
}
