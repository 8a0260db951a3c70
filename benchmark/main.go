// Command benchmark is the repository's one benchmark: what foreground
// transactions pay — throughput and response time before vs. during — while
// a split or a full outer join runs in the background, and how long the
// change takes to switch over (the paper's §6, Fig. 4). README.md describes
// the workloads, the metrics and how they are expected to interact.
//
//	go run ./benchmark [-workload w] [-seed n] [-seconds s] [-trace 1] [-quick] [-out f]
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the operation streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time per workload; divided over the trials' windows")
		trace    = flag.Int("trace", 0, "1 = traced run: record spans and report the per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke test: tiny tables, one trial")
		out      = flag.String("out", "", "append this run to a JSON file of runs (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.json b.json")
		}
		if !compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}

	run := specs
	if *workload != "" {
		s := findSpec(*workload)
		if s == nil {
			fatalf("unknown workload %q", *workload)
		}
		run = []spec{*s}
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0, quick: *quick, outDir: filepath.Join("benchmark", "out")}
	rep := report{Env: stampEnv(cfg)}
	ok := true
	for i := range run {
		wr := runWorkload(&run[i], cfg)
		wr.print(os.Stdout)
		ok = ok && wr.Correct
		rep.Runs = append(rep.Runs, wr)
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatalf("%v", err)
		}
	}
	// The result line: the last line of standard output.
	for _, wr := range rep.Runs {
		fmt.Println(wr.resultLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	quick   bool
	// outDir receives the span files and the last untraced result.
	outDir string
}

// env stamps a report with what the numbers depend on besides the code.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	// EngineOptions and Durability say what the engine ran with.
	EngineOptions string `json:"engine_options"`
	Durability    string `json:"durability"`
	Time          string `json:"time"`
}

func stampEnv(cfg runConfig) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Clients: clients,
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		EngineOptions: "engine.Options{} and core.Config{Priority, Strategy}: every other knob at its default",
		Durability:    "none: the WAL is memory-only (wal.flush = 0), so no number here includes an fsync",
		Time:          time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			e.Commit += "+modified"
		}
	}
	return e
}

// report is one invocation: what -out appends and -compare reads.
type report struct {
	Env  env              `json:"env"`
	Runs []workloadReport `json:"runs"`
}

func readReports(path string) ([]report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

func appendReport(path string, rep report) error {
	reps, err := readReports(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(append(reps, rep), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
