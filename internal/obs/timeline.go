package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Track IDs for the timeline: Chrome trace events carry a pid/tid pair and
// viewers render one horizontal track per tid. The process is always pid 1;
// tids separate the logical actors of a transformation run.
const (
	// TidTransform is the transformation coordinator track: phase spans,
	// propagation iterations, and lifecycle instants.
	TidTransform int64 = 1
	// TidWorkerBase+w is the track of populate/propagation worker w.
	TidWorkerBase int64 = 10
	// TidWAL is the group-commit track.
	TidWAL int64 = 90
	// TidCheckpoint is the fuzzy-checkpoint track.
	TidCheckpoint int64 = 91
	// TidLocks is the lock-stall track.
	TidLocks int64 = 92
)

// Span categories. Viewers color and filter by category; the bench timeline
// summary aggregates per category.
const (
	CatPhase      = "phase"
	CatPropagate  = "propagate"
	CatPopulate   = "populate"
	CatGroup      = "propagate-group"
	CatWAL        = "wal"
	CatCheckpoint = "checkpoint"
	CatLock       = "lock"
	CatTrace      = "trace"
)

// TimelineEvent is one recorded span or instant.
type TimelineEvent struct {
	Name    string
	Cat     string
	Tid     int64
	Start   time.Time
	Dur     time.Duration // ignored for instants
	N       int64         // one numeric payload (records, rows, an LSN, ...)
	Instant bool
}

// Timeline is a bounded, concurrency-safe span recorder that renders as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing). It
// keeps the newest events in a ring; older events are evicted. A nil or
// disabled Timeline is a no-op: every recording call is nil-safe and costs
// one atomic load, so instrumentation can stay unconditionally in place.
type Timeline struct {
	enabled atomic.Bool
	total   atomic.Int64 // events ever recorded (including evicted)

	mu   sync.Mutex
	evs  []TimelineEvent
	next int
	full bool
}

// defaultTimelineEvents is the ring capacity used when none is given.
const defaultTimelineEvents = 8192

// NewTimeline returns an enabled recorder keeping the newest size events
// (size <= 0 selects 8192).
func NewTimeline(size int) *Timeline {
	if size <= 0 {
		size = defaultTimelineEvents
	}
	t := &Timeline{evs: make([]TimelineEvent, size)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether the recorder accepts events. Nil-safe.
func (t *Timeline) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled toggles recording. Nil-safe.
func (t *Timeline) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Span records one complete span. Nil-safe; a disabled recorder drops it.
func (t *Timeline) Span(name, cat string, tid int64, start time.Time, dur time.Duration, n int64) {
	if !t.Enabled() {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.record(TimelineEvent{Name: name, Cat: cat, Tid: tid, Start: start, Dur: dur, N: n})
}

// Instant records one point event. Nil-safe; a disabled recorder drops it.
func (t *Timeline) Instant(name, cat string, tid int64, at time.Time, n int64) {
	if !t.Enabled() {
		return
	}
	t.record(TimelineEvent{Name: name, Cat: cat, Tid: tid, Start: at, N: n, Instant: true})
}

func (t *Timeline) record(ev TimelineEvent) {
	t.total.Add(1)
	t.mu.Lock()
	t.evs[t.next] = ev
	t.next++
	if t.next == len(t.evs) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Recorded returns the number of events ever recorded, including any that
// have been evicted from the ring. Nil-safe.
func (t *Timeline) Recorded() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
}

// Events returns the retained events sorted by start time. Nil-safe.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []TimelineEvent
	if t.full {
		out = make([]TimelineEvent, 0, len(t.evs))
		out = append(out, t.evs[t.next:]...)
		out = append(out, t.evs[:t.next]...)
	} else {
		out = append(out, t.evs[:t.next]...)
	}
	t.mu.Unlock()
	// Workers record concurrently, so ring order is only approximately
	// chronological; sort so consumers (and the trace viewer) see a
	// monotonic series.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// threadNames maps the well-known track IDs to viewer labels.
func threadName(tid int64) string {
	switch tid {
	case TidTransform:
		return "transformation"
	case TidWAL:
		return "wal group-commit"
	case TidCheckpoint:
		return "checkpoint"
	case TidLocks:
		return "lock stalls"
	}
	if tid >= TidWorkerBase && tid < TidWAL {
		return "worker " + itoa(tid-TidWorkerBase)
	}
	return "track " + itoa(tid)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained events as Chrome trace-event JSON
// ({"traceEvents": [...]}), the format Perfetto and chrome://tracing load
// directly. Spans become complete ("X") events, instants become thread-
// scoped instant ("i") events, and each known track gets a thread_name
// metadata record. Nil-safe (writes an empty trace).
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	out := make([]chromeEvent, 0, len(evs)+8)
	tids := map[int64]bool{}
	for _, ev := range evs {
		tids[ev.Tid] = true
	}
	for _, tid := range sortedTids(tids) {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": threadName(tid)},
		})
	}
	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Pid: 1, Tid: ev.Tid,
			Ts: ev.Start.UnixNano() / 1e3,
		}
		if ev.Instant {
			ce.Ph, ce.S = "i", "t"
		} else {
			ce.Ph = "X"
			ce.Dur = ev.Dur.Microseconds()
		}
		if ev.N != 0 {
			ce.Args = map[string]any{"n": ev.N}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}

func sortedTids(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for tid := range m {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TimelineSummary aggregates the retained spans of one category.
type TimelineSummary struct {
	Cat     string  `json:"cat"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// Summarize returns a per-category summary of the retained spans (instants
// count with zero duration), sorted by category. Nil-safe.
func (t *Timeline) Summarize() []TimelineSummary {
	agg := map[string]*TimelineSummary{}
	for _, ev := range t.Events() {
		s := agg[ev.Cat]
		if s == nil {
			s = &TimelineSummary{Cat: ev.Cat}
			agg[ev.Cat] = s
		}
		s.Count++
		ms := float64(ev.Dur.Nanoseconds()) / 1e6
		s.TotalMs += ms
		if ms > s.MaxMs {
			s.MaxMs = ms
		}
	}
	out := make([]TimelineSummary, 0, len(agg))
	for _, k := range sortedKeys(agg) {
		out = append(out, *agg[k])
	}
	return out
}

// TimelineSink adapts a Timeline into a trace Sink: transformation trace
// events become timeline spans and instants on the coordinator track. Phase
// transitions close a span over the previous phase, sync-latch events become
// spans over their reported duration, and the rest become instants. The
// returned sink serializes internally and is safe to fan into a MultiSink.
func TimelineSink(t *Timeline) Sink {
	var mu sync.Mutex
	var phase string
	var phaseStart time.Time
	closePhase := func(at time.Time) {
		if phase != "" && !phaseStart.IsZero() {
			t.Span(phase, CatPhase, TidTransform, phaseStart, at.Sub(phaseStart), 0)
		}
		phase, phaseStart = "", time.Time{}
	}
	return FuncSink(func(ev Event) {
		if !t.Enabled() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case EventPhase:
			closePhase(ev.Time)
			phase, phaseStart = ev.Phase, ev.Time
		case EventDone, EventAbort:
			closePhase(ev.Time)
			t.Instant(ev.Kind.String(), CatTrace, TidTransform, ev.Time, 0)
		case EventIteration:
			// The iteration event reports its own duration: reconstruct the
			// span it covered.
			t.Span("iteration "+itoa(int64(ev.Iteration)), CatPropagate,
				TidTransform, ev.Time.Add(-ev.Duration), ev.Duration, int64(ev.Applied))
		case EventSyncLatched:
			t.Span("sync-latch", CatTrace, TidTransform,
				ev.Time.Add(-ev.Duration), ev.Duration, int64(ev.Doomed))
		case EventPopulateChunk:
			t.Instant("populate-chunk", CatPopulate, TidTransform, ev.Time, ev.Rows)
		case EventFuzzyMark:
			t.Instant("fuzzy-mark", CatTrace, TidTransform, ev.Time, int64(ev.LSN))
		default:
			t.Instant(ev.Kind.String(), CatTrace, TidTransform, ev.Time, int64(ev.LSN))
		}
	})
}
