package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventKind classifies a transformation trace event.
type EventKind uint8

const (
	// EventPhase marks a lifecycle phase transition; Phase carries the new
	// phase name.
	EventPhase EventKind = iota
	// EventFuzzyMark marks a fuzzy mark appended to the log; LSN carries its
	// position.
	EventFuzzyMark
	// EventPopulateChunk marks one completed initial-population work chunk;
	// Rows carries the cumulative row count so far.
	EventPopulateChunk
	// EventIteration marks one completed log-propagation iteration; it
	// carries Iteration, Applied, Scanned, Remaining, Duration and the
	// per-rule applied counts of the iteration (Rules).
	EventIteration
	// EventSyncRetry marks a timed source-latch pass that gave up and
	// degraded to a catch-up propagation round (Iteration carries the 1-based
	// attempt number).
	EventSyncRetry
	// EventSyncLatched marks the end of the synchronization latch window;
	// Duration carries the hold time — the only pause user transactions see.
	EventSyncLatched
	// EventSwitchover marks the catalog switchover: Tables carries the
	// published target tables, Doomed the number of force-aborted
	// transactions.
	EventSwitchover
	// EventStall marks a detected propagation stall (the stall policy fired;
	// Err says whether it boosted or aborted).
	EventStall
	// EventDone marks a committed transformation; Duration carries the total
	// wall-clock time.
	EventDone
	// EventAbort marks an abandoned transformation; Err carries the cause.
	EventAbort
	// EventFreshness reports the freshness watermarks as the transformation
	// enters synchronization: LSN carries the applied-LSN high-water mark,
	// Duration the current lag (age of the oldest unapplied timestamped
	// commit), Remaining the record backlog. Err is empty when the lag was
	// within the configured SLO (SwitchoverReady), and names the violation
	// otherwise.
	EventFreshness
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventPhase:
		return "phase"
	case EventFuzzyMark:
		return "fuzzy-mark"
	case EventPopulateChunk:
		return "populate-chunk"
	case EventIteration:
		return "iteration"
	case EventSyncRetry:
		return "sync-retry"
	case EventSyncLatched:
		return "sync-latched"
	case EventSwitchover:
		return "switchover"
	case EventStall:
		return "stall"
	case EventDone:
		return "done"
	case EventAbort:
		return "abort"
	case EventFreshness:
		return "freshness"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one structured transformation trace event. Fields not meaningful
// for a kind are zero. Events are immutable once emitted.
type Event struct {
	// Seq is a per-transformation sequence number, starting at 1; a complete
	// trace has no gaps.
	Seq int64 `json:"seq"`
	// Time is the emission time.
	Time time.Time `json:"time"`
	// Kind classifies the event.
	Kind EventKind `json:"-"`
	// KindName is Kind.String(), duplicated for JSON consumers.
	KindName string `json:"kind"`
	// Phase is the transformation phase at emission time.
	Phase string `json:"phase,omitempty"`
	// Iteration is the 1-based propagation iteration (EventIteration), or
	// the latch attempt (EventSyncRetry).
	Iteration int `json:"iteration,omitempty"`
	// Applied is the number of log records redone in the iteration, after
	// net-effect compaction.
	Applied int `json:"applied,omitempty"`
	// Scanned is the number of raw log records the iteration consumed
	// before compaction; Scanned−Applied is the iteration's compaction win
	// (equal when compaction is off or unsupported).
	Scanned int `json:"scanned,omitempty"`
	// Remaining is the backlog left after the iteration.
	Remaining int `json:"remaining,omitempty"`
	// Rows is the cumulative initial-image row count (EventPopulateChunk).
	Rows int64 `json:"rows,omitempty"`
	// LSN is the log position of a fuzzy mark.
	LSN uint64 `json:"lsn,omitempty"`
	// Duration is the iteration time, latch window, or total time.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Rules holds per-rule applied counts for the iteration, keyed
	// "rule1".."rule11" (only non-zero entries are present).
	Rules map[string]int64 `json:"rules,omitempty"`
	// Tables names the tables published at switchover.
	Tables []string `json:"tables,omitempty"`
	// Doomed is the number of transactions force-aborted at switchover.
	Doomed int `json:"doomed,omitempty"`
	// Err carries the abort cause or stall action.
	Err string `json:"err,omitempty"`
}

// Sink receives transformation trace events. Emit must be safe for
// concurrent use and must not block for long: it is called from the
// transformation goroutine between work batches.
type Sink interface {
	Emit(Event)
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit calls the function.
func (f FuncSink) Emit(ev Event) { f(ev) }

// MultiSink fans an event out to several sinks in order.
type MultiSink []Sink

// Emit delivers ev to every sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// RingSink is a bounded, concurrency-safe ring buffer of events — the default
// trace sink of a transformation. When full, the oldest events are dropped
// (and counted).
type RingSink struct {
	mu      sync.Mutex
	buf     []Event
	next    int // write position
	wrapped bool
	dropped int64
}

// NewRingSink returns a ring buffer holding the last n events (n ≤ 0 selects
// 1024).
func NewRingSink(n int) *RingSink {
	if n <= 0 {
		n = 1024
	}
	return &RingSink{buf: make([]Event, n)}
}

// Emit stores the event, evicting the oldest when full.
func (r *RingSink) Emit(ev Event) {
	r.mu.Lock()
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *RingSink) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns the number of events evicted because the ring was full.
func (r *RingSink) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of buffered events.
func (r *RingSink) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}
