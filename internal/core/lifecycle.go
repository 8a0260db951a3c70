package core

import (
	"encoding/json"
	"fmt"

	"nbschema/internal/engine"
	"nbschema/internal/wal"
)

// Transformation lifecycle records. A running transformation journals its
// milestones into the WAL so crash recovery (recover.go) can tell what a
// crash interrupted:
//
//   - transform-start (Meta = operator kind + spec as JSON) marks target
//     creation; everything after it belongs to this transformation attempt.
//     A start without a done is an unfinished attempt.
//   - transform-phase (Mark = propagation start cursor) marks the initial
//     population complete. No recovery case depends on it.
//   - transform-switch (Mark = switchover LSN) marks the catalog switchover.
//     The targets are published before it is appended, so a checkpoint that
//     began after it holds them as public, complete tables; recovery then
//     finishes the switchover instead of undoing it.
//   - transform-done (Meta = outcome JSON) marks the attempt finished —
//     committed or cleanly aborted. Recovery leaves the published targets of
//     a committed attempt alone.
//
// The records carry Txn 0 and are not operations: restart bookkeeping and
// log propagation both ignore them.

// transformMeta is the JSON payload of transform-start records: enough to
// rebuild the operator after a crash.
type transformMeta struct {
	Kind  string     `json:"kind"` // "foj" or "split"
	Join  *JoinSpec  `json:"join,omitempty"`
	Split *SplitSpec `json:"split,omitempty"`
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

// logStart appends the transform-start record carrying the operator spec.
func (tr *Transformation) logStart() error {
	meta, err := json.Marshal(tr.op.describe())
	if err != nil {
		return fmt.Errorf("core: encoding transformation spec: %w", err)
	}
	tr.db.Log().Append(&wal.Record{Type: wal.TypeTransformStart, Meta: meta})
	return nil
}

// logPopulated appends the transform-phase record marking the initial
// population complete, with the propagation start cursor.
func (tr *Transformation) logPopulated(cursor wal.LSN) {
	tr.db.Log().Append(&wal.Record{Type: wal.TypeTransformPhase, Mark: cursor})
}

// logSwitch appends the transform-switch record at catalog switchover.
func (tr *Transformation) logSwitch(at wal.LSN) {
	tr.db.Log().Append(&wal.Record{Type: wal.TypeTransformSwitch, Mark: at})
}

// logDone appends the transform-done record closing this attempt.
func (tr *Transformation) logDone(aborted bool) {
	var targets, sources []string
	if !aborted {
		targets = append(targets, tr.op.Targets()...)
		sources = append(sources, tr.op.Sources()...)
	}
	meta, err := json.Marshal(doneMeta{Targets: targets, Sources: sources, Aborted: aborted})
	if err != nil {
		meta = nil
	}
	tr.db.Log().Append(&wal.Record{Type: wal.TypeTransformDone, Meta: meta})
}

// transformLogState summarizes the lifecycle records of the latest
// transformation attempt found in the log.
type transformLogState struct {
	start    *wal.Record // latest transform-start (nil: no attempt logged)
	switched *wal.Record // transform-switch after start
	done     *wal.Record // transform-done after start
	doneMeta doneMeta
}

// scanTransformLog walks the log and reduces it to the lifecycle state of
// the latest transformation attempt.
func scanTransformLog(log *wal.Log) transformLogState {
	var st transformLogState
	for _, rec := range log.Scan(1, 0) {
		switch rec.Type {
		case wal.TypeTransformStart:
			st = transformLogState{start: rec}
		case wal.TypeTransformSwitch:
			if st.start != nil {
				st.switched = rec
			}
		case wal.TypeTransformDone:
			if st.start != nil {
				st.done = rec
				st.doneMeta = doneMeta{}
				if len(rec.Meta) > 0 {
					_ = json.Unmarshal(rec.Meta, &st.doneMeta)
				}
			}
		}
	}
	return st
}

// decodeTransformMeta parses a transform-start record's spec payload.
func decodeTransformMeta(rec *wal.Record) (transformMeta, error) {
	var meta transformMeta
	if err := json.Unmarshal(rec.Meta, &meta); err != nil {
		return meta, fmt.Errorf("core: decoding transformation spec at LSN %d: %w", rec.LSN, err)
	}
	return meta, nil
}

// rebuildTransformation reconstructs a transformation from a logged spec,
// with a zero Config: the function-valued knobs cannot be logged.
func rebuildTransformation(db *engine.DB, meta transformMeta) (*Transformation, error) {
	switch meta.Kind {
	case "foj":
		if meta.Join == nil {
			return nil, fmt.Errorf("core: transform-start record of kind foj carries no join spec")
		}
		return NewFullOuterJoin(db, *meta.Join, Config{})
	case "split":
		if meta.Split == nil {
			return nil, fmt.Errorf("core: transform-start record of kind split carries no split spec")
		}
		return NewSplit(db, *meta.Split, Config{})
	default:
		return nil, fmt.Errorf("core: unknown transformation kind %q in transform-start record", meta.Kind)
	}
}
