package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/lock"
	"nbschema/internal/value"
)

// Windows of a trial. A transaction belongs to the window in which it
// completed.
const (
	winWarm = iota
	winBaseline
	winDuring
	winAfter
	winStop
	nWindows = winStop
)

var windowNames = [nWindows]string{"warm", "baseline", "during", "after"}

// Why an attempt was rolled back and retried.
const (
	retryDoomed = iota
	retryDeadlock
	retryTimeout
	retryNoAccess
	nRetryKinds
)

var retryNames = [nRetryKinds]string{"doomed", "deadlock", "lock_timeout", "no_access"}

// retryBackoff keeps a client that fails against a closed table from
// flooding the log with begin/abort records.
const retryBackoff = 50 * time.Microsecond

// shared is what the clients of one trial have in common.
type shared struct {
	spec *spec
	db   *engine.DB
	base time.Time     // trial clock origin
	win  atomic.Int32  // current window
	seq  atomic.Uint64 // oracle sequence numbers
}

func (sh *shared) now() int64 { return int64(time.Since(sh.base)) }

// client is one load-generator goroutine: closed-loop, or a worker of the
// open-loop queue.
type client struct {
	*shared
	id      int
	gen     *generator
	targets []target // own copy: each client switches over on its own
	cols    [][]string
	toggles bool // the source still takes slab inserts/deletes
	orc     *clientOracle
	tr      *tracer // nil in an untraced run

	key, key2, val value.Tuple // scratch; the engine clones what it keeps

	// lat holds every committed transaction's latency in ns, exactly, by
	// window and transaction type.
	lat      [nWindows][nTxnTypes][]int64
	attempts int64
	retries  [nRetryKinds]int64
	err      error // first non-retryable error
}

func newClient(sh *shared, id int, seed int64, trial int, expectPerWindow int, tr *tracer) *client {
	c := &client{
		shared: sh, id: id, tr: tr,
		gen:     newGenerator(sh.spec, seed, trial, id),
		targets: sh.spec.targets(),
		toggles: true,
		orc:     newClientOracle(sh.spec),
		key:     make(value.Tuple, 1),
		key2:    make(value.Tuple, 2),
		val:     make(value.Tuple, 1),
	}
	for _, t := range c.targets {
		c.cols = append(c.cols, []string{t.col})
	}
	for w := range c.lat {
		c.lat[w][txnUpdate] = make([]int64, 0, expectPerWindow)
		if sh.spec.kind == kindSteady {
			c.lat[w][txnRead] = make([]int64, 0, expectPerWindow)
			c.lat[w][txnPair] = make([]int64, 0, expectPerWindow/4)
		}
	}
	return c
}

// keyOf builds the primary key of logical key k in the target's current
// table. The result is scratch: valid until the next call.
func (c *client) keyOf(t *target, k int64) value.Tuple {
	if t.rsKey {
		c.key2[0], c.key2[1] = value.Int(k), value.Int(c.spec.jvOf(k))
		return c.key2
	}
	c.key[0] = value.Int(k)
	return c.key
}

// switchOver moves the client to the transformed tables, as an application
// does once the old ones stop answering. The new tables have another shape,
// so the slab inserts/deletes stop, and on RS both sources' operations
// become updates of R's payload under RS's own key.
func (c *client) switchOver() {
	for i := range c.targets {
		t := &c.targets[i]
		if t.fallback == "" || t.table == t.fallback {
			continue
		}
		t.table = t.fallback
		c.toggles = false
		if c.spec.kind == kindFOJ {
			t.rsKey = true
			t.logical, t.col = logT, "payload"
			c.cols[i] = []string{"payload"}
		}
	}
}

// attempt runs the plan once as an engine transaction.
func (c *client) attempt(p *plan) error {
	c.attempts++
	t0 := c.tr.start()
	tx := c.db.Begin()
	c.tr.end(spBegin, t0)
	var err error
	for i := 0; i < p.n && err == nil; i++ {
		o := &p.ops[i]
		t := &c.targets[o.tgt]
		kind := o.kind
		if kind == opToggle && !c.toggles {
			kind = opUpdate
		}
		t0 = c.tr.start()
		switch kind {
		case opUpdate:
			c.val[0] = value.Int(o.val)
			if err = tx.Update(t.table, c.keyOf(t, o.key), c.cols[o.tgt], c.val); err == nil {
				// Drawn while the record lock is still held.
				c.orc.write(t.logical, o.key, c.seq.Add(1), o.val)
			}
		case opGet:
			_, err = tx.Get(t.table, c.keyOf(t, o.key))
		default:
			k := t.keys + int64(c.id)*slabSize + int64(o.slot)
			if kind == opInsert || (kind == opToggle && !c.orc.slab[o.slot]) {
				err = tx.Insert(t.table, t.mkRow(k))
			} else {
				err = tx.Delete(t.table, c.keyOf(t, k))
			}
			if err == nil {
				c.orc.toggle(o.slot)
			}
		}
		c.tr.end(spOp, t0)
	}
	if err == nil {
		t0 = c.tr.start()
		err = tx.Commit()
		c.tr.end(spCommit, t0)
		if err == nil {
			c.orc.commit()
			return nil
		}
	}
	c.orc.rollback()
	t0 = c.tr.start()
	aerr := tx.Abort()
	c.tr.end(spAbort, t0)
	if aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
		return fmt.Errorf("abort: %w", aerr)
	}
	return err
}

// classify maps an attempt's error to a retry kind; ok is false for an error
// a running transformation does not explain.
func classify(err error) (kind int, ok bool) {
	switch {
	case errors.Is(err, engine.ErrTxnDoomed), errors.Is(err, engine.ErrTxnDone):
		return retryDoomed, true
	case errors.Is(err, engine.ErrNoAccess), errors.Is(err, catalog.ErrNotFound):
		return retryNoAccess, true
	case errors.Is(err, lock.ErrDeadlock):
		return retryDeadlock, true
	case errors.Is(err, lock.ErrTimeout), errors.Is(err, lock.ErrShadowConflict):
		return retryTimeout, true
	}
	return 0, false
}

// runTxn retries the plan until it commits. It returns false when the trial
// stopped first or the client hit a non-retryable error.
func (c *client) runTxn(p *plan) bool {
	c.tr.newTrace()
	for {
		err := c.attempt(p)
		if err == nil {
			return true
		}
		kind, ok := classify(err)
		if !ok {
			c.err = err
			return false
		}
		c.retries[kind]++
		if kind == retryNoAccess {
			c.switchOver()
		}
		if c.win.Load() == winStop {
			return false
		}
		time.Sleep(retryBackoff)
	}
}

func (c *client) record(typ int, start, end int64) {
	w := c.win.Load()
	if w < nWindows {
		c.lat[w][typ] = append(c.lat[w][typ], end-start)
	}
	c.tr.endTxn(start, end, uint8(w))
}

// runClosed is a closed-loop client with no think time: the next
// transaction starts when the previous one committed.
func (c *client) runClosed() {
	var p plan
	for c.win.Load() != winStop && c.err == nil {
		c.gen.next(&p)
		start := c.now()
		if c.runTxn(&p) {
			c.record(p.typ, start, c.now())
		}
	}
}

// runOpen is a worker of the open-loop queue. Latency runs from the moment
// the transaction was due, so a stall charges every transaction queued
// behind it.
func (c *client) runOpen(queue <-chan int64) {
	var p plan
	for due := range queue {
		if c.err != nil {
			continue // keep draining so the pacer never blocks
		}
		c.gen.next(&p)
		if c.runTxn(&p) {
			c.record(p.typ, due, c.now())
		}
	}
}
