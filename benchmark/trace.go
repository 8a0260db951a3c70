package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"nbschema/internal/obs"
)

// Spans are recorded from the benchmark's own code, around each call into
// the engine. A transaction's spans share a trace id and have the
// transaction span as parent; a transformation's phase and iteration spans
// have the transformation span as parent. They stay in memory until the run
// ends.

type spanKind uint8

const (
	spTxn spanKind = iota
	spBegin
	spOp
	spCommit
	spAbort
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"txn", "engine.begin", "engine.op", "engine.commit", "engine.abort"}

// span is one timed call; start is in ns since the trial's clock origin.
type span struct {
	start, dur int64
	trace      uint32
	kind       spanKind
	win        uint8
}

// tracer collects one client's spans. All methods are no-ops on nil, which
// is what an untraced run passes.
type tracer struct {
	sh    *shared
	spans []span
	trace uint32 // current trace id: client in the top 4 bits
	first int    // index of the current trace's first span
}

func newTracer(sh *shared, client int) *tracer {
	return &tracer{sh: sh, trace: uint32(client) << 28, spans: make([]span, 0, 1<<20)}
}

func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
		t.first = len(t.spans)
	}
}

func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.sh.now()
}

func (t *tracer) end(kind spanKind, start int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		start: start, dur: t.sh.now() - start, trace: t.trace, kind: kind,
		win: uint8(t.sh.win.Load()),
	})
}

// endTxn records the transaction span — the parent of every span recorded
// since newTrace — and files the children under the transaction's window.
func (t *tracer) endTxn(start, end int64, win uint8) {
	if t == nil {
		return
	}
	for i := t.first; i < len(t.spans); i++ {
		t.spans[i].win = win
	}
	t.spans = append(t.spans, span{start: start, dur: end - start, trace: t.trace, kind: spTxn, win: win})
}

// phaseSpan is a span of the transformation's own trace, built from the
// events core.Config.Sink delivers.
type phaseSpan struct {
	name       string
	start, dur int64
}

// phaseSink turns the transformation's phase and iteration events into
// spans under one transformation span.
type phaseSink struct {
	sh *shared

	mu        sync.Mutex
	spans     []phaseSpan
	phase     string
	phaseFrom int64
}

func (s *phaseSink) Emit(ev obs.Event) {
	at := int64(ev.Time.Sub(s.sh.base))
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case obs.EventPhase:
		s.closePhase(at)
		s.phase, s.phaseFrom = ev.Phase, at
	case obs.EventIteration:
		s.spans = append(s.spans, phaseSpan{fmt.Sprintf("core.iteration.%d", ev.Iteration), at - int64(ev.Duration), int64(ev.Duration)})
	case obs.EventSyncLatched:
		s.spans = append(s.spans, phaseSpan{"core.sync_latch", at - int64(ev.Duration), int64(ev.Duration)})
	}
}

func (s *phaseSink) closePhase(at int64) {
	if s.phase != "" {
		s.spans = append(s.spans, phaseSpan{"core." + s.phase, s.phaseFrom, at - s.phaseFrom})
	}
	s.phase = ""
}

// traceSample is how many transaction traces go to the span file: every
// sampleEvery-th one. All spans are kept in memory and counted in the
// metrics; the file holds a sample because a run records several million.
const sampleEvery = 64

// traceFile accumulates the span file of one run.
type traceFile struct {
	f *os.File
	w *bufio.Writer
	n int
}

func createTraceFile(path string) (*traceFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	_, _ = w.WriteString("{\"unit\":\"ns\",\"sampled_txn_traces\":\"1/" + fmt.Sprint(sampleEvery) + "\",\"spans\":[\n")
	return &traceFile{f: f, w: w}, nil
}

func (tf *traceFile) add(trial int, name string, trace uint64, parent string, win string, start, dur int64) {
	if tf.n > 0 {
		_, _ = tf.w.WriteString(",\n")
	}
	tf.n++
	fmt.Fprintf(tf.w, `{"trial":%d,"name":%q,"trace":%d,"parent":%q,"window":%q,"start":%d,"dur":%d}`,
		trial, name, trace, parent, win, start, dur)
}

// addTrial writes one trial's transformation spans and its sampled
// transaction traces.
func (tf *traceFile) addTrial(trial int, tracers []*tracer, sink *phaseSink, runStart, runDur int64) {
	if sink != nil {
		tf.add(trial, "core.run", 0, "", "during", runStart, runDur)
		sink.mu.Lock()
		for _, p := range sink.spans {
			tf.add(trial, p.name, 0, "core.run", "during", p.start, p.dur)
		}
		sink.mu.Unlock()
	}
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.trace%sampleEvery != 0 {
				continue
			}
			parent := "txn"
			if s.kind == spTxn {
				parent = ""
			}
			win := "stop"
			if int(s.win) < nWindows {
				win = windowNames[s.win]
			}
			tf.add(trial, spanNames[s.kind], uint64(s.trace), parent, win, s.start, s.dur)
		}
	}
}

func (tf *traceFile) close() error {
	_, _ = tf.w.WriteString("\n]}\n")
	if err := tf.w.Flush(); err != nil {
		_ = tf.f.Close()
		return err
	}
	return tf.f.Close()
}

// spanStats is the mean and p99 of one span kind in one window.
type spanStats struct {
	n    int
	mean float64 // µs
	p99  float64 // µs; 0 when too few samples lie beyond it
}

// spanStatsOf summarizes, in one pass over every trial's spans, each span
// kind in each window.
func spanStatsOf(trials []*trialResult) (out [nSpanKinds][nWindows]spanStats) {
	var durs [nSpanKinds][nWindows][]int64
	for _, r := range trials {
		for _, t := range r.tracers {
			for _, s := range t.spans {
				if int(s.win) < nWindows {
					durs[s.kind][s.win] = append(durs[s.kind][s.win], s.dur)
				}
			}
		}
	}
	for kind := range durs {
		for win, d := range durs[kind] {
			st := spanStats{n: len(d), mean: meanOf(d) / 1e3}
			if p, ok := percentile(d, 0.99); ok {
				st.p99 = float64(p) / 1e3
			}
			out[kind][win] = st
		}
	}
	return out
}
