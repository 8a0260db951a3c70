package core

import (
	"encoding/json"
	"fmt"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/wal"
)

// The transformation lifecycle (§3, §6). This file is the only owner of a
// transformation's state: each transition below is one function that appends
// its lifecycle record, makes its table-state changes in one catalog call and
// sets Phase. No other code sets the state of a transformation's tables,
// drops them or reopens them.
//
//	transition  record            catalog                                  phase
//	start       transform-start   targets hidden (Prepare creates them so)  populating
//	gate        —                 sources dropping at the gate              —
//	switch      transform-switch  targets public, sources dropping at LSN   draining
//	finish      transform-done    sources dropped unless KeepSources        done
//	abort       transform-done    existing targets dropped, gated sources   aborted
//	            (aborted)         public again
//
// gate is BlockingCommit's: it shuts the sources to transactions begun from
// then on before synchronization waits for their lock holders. switch runs
// under the source latches; synchronize sets draining once it has released
// them (non-blocking strategies only), so the latched window holds just the
// catalog call and the append.
//
// The switch is the point of no return. Before it, any error, cancellation
// or Abort runs abort. After it they no longer roll back: the drain dooms the
// old transactions instead, and finish runs (sync.go). Recover folds the
// records into the attempt's last state and calls the same finish or abort.
//
// Each record is appended between the fault points core.<transition>.before
// and core.<transition>.after (gate: around its catalog call), so a test can
// crash a transition just before or just after it. The records carry Txn 0
// and are not operations: restart bookkeeping and log propagation ignore
// them.

// transformMeta is the JSON payload of transform-start records: the operator
// spec, from which recovery learns the attempt's tables.
type transformMeta struct {
	Kind        string     `json:"kind"` // "foj" or "split"
	Join        *JoinSpec  `json:"join,omitempty"`
	Split       *SplitSpec `json:"split,omitempty"`
	KeepSources bool       `json:"keep_sources,omitempty"`
}

// doneMeta is the JSON payload of transform-done records. Sources lists the
// source tables of a committed attempt: with Config.KeepSources they remain
// in the dropping state on purpose, and recovery must not "reopen" them as if
// a crash had interrupted the switchover.
type doneMeta struct {
	Targets []string `json:"targets,omitempty"`
	Sources []string `json:"sources,omitempty"`
	Aborted bool     `json:"aborted,omitempty"`
}

// start logs the transform-start record. Prepare has created the targets in
// the hidden state; everything logged after the record belongs to this
// attempt.
func (tr *Transformation) start() error {
	meta := tr.op.describe()
	meta.KeepSources = tr.cfg.KeepSources
	buf, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("core: encoding transformation spec: %w", err)
	}
	tr.started, err = appendRecord(tr.db, "start", &wal.Record{Type: wal.TypeTransformStart, Meta: buf})
	if err != nil {
		return err
	}
	tr.setPhase(PhasePopulating)
	return nil
}

// gate shuts the sources to transactions begun from now on; those already
// running may finish. abort reopens them.
func (tr *Transformation) gate() error {
	if err := tr.faultHit("gate.before"); err != nil {
		return err
	}
	tr.gated = true
	if err := setStates(tr.db, nil, tr.op.Sources(), tr.db.Log().End()+1); err != nil {
		return err
	}
	return tr.faultHit("gate.after")
}

// switchover publishes the targets and shuts the sources in one catalog call,
// then logs the switch at end, the switchover LSN. at is the sources' new
// gate: end+1 lets the transactions begun before the switch finish on them,
// 0 shuts out everyone. The caller holds the source latches. Once the catalog
// has switched the run no longer rolls back, even if the append is
// interrupted.
func (tr *Transformation) switchover(end, at wal.LSN) error {
	if err := setStates(tr.db, tr.op.Targets(), tr.op.Sources(), at); err != nil {
		return err
	}
	tr.switched = true
	_, err := appendRecord(tr.db, "switch", &wal.Record{Type: wal.TypeTransformSwitch, Mark: end})
	return err
}

// finish completes a switched attempt and sets PhaseDone.
func (tr *Transformation) finish() error {
	if err := finishAttempt(tr.db, tr.op.Targets(), tr.op.Sources(), tr.cfg.KeepSources); err != nil {
		return err
	}
	tr.setPhase(PhaseDone)
	return nil
}

// abort rolls back an attempt that has not switched and sets PhaseAborted.
// It drops only hidden targets: a target name that Prepare found taken
// belongs to someone else.
func (tr *Transformation) abort() error {
	var targets, sources []string
	for _, t := range tr.op.Targets() {
		if st, _, err := tr.db.Catalog().StateOf(t); err == nil && st == catalog.StateHidden {
			targets = append(targets, t)
		}
	}
	if tr.gated {
		sources = tr.op.Sources()
	}
	err := abortAttempt(tr.db, targets, sources, tr.started)
	tr.setPhase(PhaseAborted)
	return err
}

// finishAttempt drops the sources unless keep, then logs done. A live run
// and Recover both call it; Recover may meet sources a crash left already
// dropped, so only sources still in the dropping state are dropped.
func finishAttempt(db *engine.DB, targets, sources []string, keep bool) error {
	for _, s := range sources {
		st, _, err := db.Catalog().StateOf(s)
		if keep || err != nil || st != catalog.StateDropping {
			continue
		}
		if err := db.DropTable(s); err != nil {
			return fmt.Errorf("core: drop source %s: %w", s, err)
		}
	}
	return logDone(db, "finish", doneMeta{Targets: targets, Sources: sources})
}

// abortAttempt is the one rollback (§6: "log propagation is stopped, and the
// transformed tables are deleted"): it drops the targets that exist, reopens
// the sources in one catalog call and, when open (the attempt's start is
// logged and its done is not), logs done(aborted), which closes the attempt.
// A live run and Recover both call it.
func abortAttempt(db *engine.DB, targets, sources []string, open bool) error {
	for _, t := range targets {
		if db.Table(t) == nil {
			continue
		}
		if err := db.DropTable(t); err != nil {
			return fmt.Errorf("core: drop target %s: %w", t, err)
		}
	}
	if err := setStates(db, sources, nil, 0); err != nil {
		return fmt.Errorf("core: reopen sources: %w", err)
	}
	if !open {
		return nil
	}
	return logDone(db, "abort", doneMeta{Aborted: true})
}

// setStates makes public the tables in public and sets those in dropping to
// the dropping state with gate at, in one catalog call.
func setStates(db *engine.DB, public, dropping []string, at wal.LSN) error {
	changes := make([]catalog.StateChange, 0, len(public)+len(dropping))
	for _, t := range public {
		changes = append(changes, catalog.StateChange{Name: t, State: catalog.StatePublic})
	}
	for _, s := range dropping {
		changes = append(changes, catalog.StateChange{Name: s, State: catalog.StateDropping, DropAt: at})
	}
	return db.Catalog().SetState(changes...)
}

// logDone appends the transform-done record closing an attempt.
func logDone(db *engine.DB, transition string, meta doneMeta) error {
	buf, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("core: encoding transform-done record: %w", err)
	}
	_, err = appendRecord(db, transition, &wal.Record{Type: wal.TypeTransformDone, Meta: buf})
	return err
}

// appendRecord appends a lifecycle record between the transition's fault
// points and reports whether it was appended.
func appendRecord(db *engine.DB, transition string, rec *wal.Record) (bool, error) {
	f := db.Faults()
	if f != nil {
		if err := f.Hit("core." + transition + ".before"); err != nil {
			return false, err
		}
	}
	db.Log().Append(rec)
	if f != nil {
		return true, f.Hit("core." + transition + ".after")
	}
	return true, nil
}

// attemptLog is the lifecycle of the latest transformation attempt, folded
// from its records.
type attemptLog struct {
	start    *wal.Record // latest transform-start (nil: no attempt logged)
	switched *wal.Record // transform-switch after start
	done     *wal.Record // transform-done after start
	doneMeta doneMeta
}

// open reports an attempt that logged its start and never its done.
func (a attemptLog) open() bool { return a.start != nil && a.done == nil }

// foldLifecycle walks the log and folds it into the lifecycle of the latest
// attempt.
func foldLifecycle(log *wal.Log) attemptLog {
	var a attemptLog
	for _, rec := range log.Scan(1, 0) {
		switch rec.Type {
		case wal.TypeTransformStart:
			a = attemptLog{start: rec}
		case wal.TypeTransformSwitch:
			if a.start != nil {
				a.switched = rec
			}
		case wal.TypeTransformDone:
			if a.start != nil {
				a.done = rec
				a.doneMeta = doneMeta{}
				if len(rec.Meta) > 0 {
					_ = json.Unmarshal(rec.Meta, &a.doneMeta)
				}
			}
		}
	}
	return a
}

// tables decodes the attempt's logged spec and returns it with the targets
// and sources it names, as its operator would.
func (a attemptLog) tables() (meta transformMeta, targets, sources []string, err error) {
	if err := json.Unmarshal(a.start.Meta, &meta); err != nil {
		return meta, nil, nil, fmt.Errorf("core: decoding transformation spec at LSN %d: %w", a.start.LSN, err)
	}
	var op operator
	switch {
	case meta.Kind == "foj" && meta.Join != nil:
		op = &fojOp{spec: *meta.Join}
	case meta.Kind == "split" && meta.Split != nil:
		op = &splitOp{spec: *meta.Split}
	default:
		return meta, nil, nil, fmt.Errorf("core: transform-start record of kind %q carries no usable spec", meta.Kind)
	}
	return meta, op.Targets(), op.Sources(), nil
}
