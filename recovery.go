package nbschema

import (
	"context"
	"io"

	"nbschema/internal/catalog"
	"nbschema/internal/core"
	"nbschema/internal/engine"
	"nbschema/internal/fault"
	"nbschema/internal/wal"
)

// FaultRegistry is a registry of named fault points for deterministic fault
// injection in tests: arm a point with a trigger (every hit, the Nth hit, a
// seeded probability) and an action (return an error, panic as a simulated
// crash, sleep), pass the registry via Options.Faults, and the instrumented
// seams — WAL append and read, storage writes, lock and latch acquisition,
// every transformation phase transition — fire it. Disarmed points cost one
// atomic load.
type FaultRegistry = fault.Registry

// NewFaultRegistry returns an empty fault registry.
func NewFaultRegistry() *FaultRegistry { return fault.New() }

// Fault triggers and actions, re-exported so FaultRegistry.Arm is usable
// without importing the internal package.
var (
	FaultAlways  = fault.Always      // fire on every hit
	FaultOnHit   = fault.OnHit       // fire exactly on the nth hit
	FaultFromHit = fault.FromHit     // fire on the nth hit and after
	FaultEveryN  = fault.EveryN      // fire on every nth hit
	FaultProb    = fault.Prob        // fire with probability p (seeded)
	FaultError   = fault.ErrorAction // return an error wrapping ErrInjected
	FaultCrash   = fault.CrashAction // panic with a Crash value
	FaultSleep   = fault.SleepAction // delay the hit
)

// ErrInjected is the sentinel all injected fault errors wrap.
var ErrInjected = fault.ErrInjected

// AsCrash reports whether a recovered panic value is an injected crash,
// for process-simulation boundaries in tests.
var AsCrash = fault.AsCrash

// WALCorruption describes where a serialized write-ahead log stopped being
// decodable: the byte offset and record index of the first bad frame, and
// whether it was a torn tail (a frame cut short by a crash mid-append) as
// opposed to in-place corruption.
type WALCorruption = wal.CorruptionError

// RecoverReport describes what DB.Recover found and did.
type RecoverReport = core.RecoverReport

// CheckpointStats describes one completed fuzzy checkpoint.
type CheckpointStats = engine.CheckpointStats

// RestoredCheckpoint describes the checkpoint a restart recovered from.
type RestoredCheckpoint = engine.RestoredCheckpoint

// TableSpec names one table for Restart: the schema is not logged, so a
// restarting process supplies it.
type TableSpec struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
}

func (s TableSpec) def() (*catalog.TableDef, error) {
	cc := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		cc[i] = catalog.Column{Name: c.Name, Type: c.Type, Nullable: c.Nullable}
	}
	return catalog.NewTableDef(s.Name, cc, s.PrimaryKey)
}

// WriteLog serializes the write-ahead log to w (checksummed binary frames).
// Together with Restart it round-trips a database across a process
// boundary.
func (db *DB) WriteLog(w io.Writer) (int64, error) {
	return db.eng.Log().WriteTo(w)
}

// Restart rebuilds a database from a serialized write-ahead log: an
// ARIES-style redo pass replays all logged work, then losers — transactions
// without a commit or abort record — are rolled back. With
// Options.LenientWAL set, the log is truncated at the first undecodable
// frame and the cut is reported in the returned *WALCorruption (nil when
// the log was intact; Torn distinguishes a crash-torn tail from in-place
// corruption); without it, any corruption fails the restart.
//
// If the crash interrupted a schema transformation, follow Restart with
// DB.Recover.
func Restart(r io.Reader, tables []TableSpec, opts ...Options) (*DB, *WALCorruption, error) {
	return RestartWithCheckpoint(r, nil, tables, opts...)
}

// Recover cleans up a schema transformation interrupted by a crash: target
// tables named here (or left in the hidden state) are dropped — they were
// populated outside the log and checkpoints do not write hidden tables, so
// after a restart they are absent or empty shells — and sources caught
// mid-switchover are reopened for public use. The transformation can then
// simply be run again (§6 of the paper). A transformation whose switchover a
// restored checkpoint already holds is finished instead: its doomed sources
// are dropped unless it kept them.
//
// Recover is idempotent: targets of a transformation whose completion
// survived (the engine is live, or a checkpoint taken after completion was
// restored) are left alone even when named here, and an attempt it has
// rolled back is closed in the log, so a second call finds nothing to do.
func (db *DB) Recover(ctx context.Context, targets ...string) (RecoverReport, error) {
	return core.Recover(ctx, db.eng, core.RecoverConfig{Targets: targets})
}

// Checkpoint takes a fuzzy checkpoint now and writes its snapshot to w.
// Writers are never stopped; the snapshot may mix row versions, which the
// WAL suffix past the checkpoint repairs on restart (guarded, idempotent
// redo). Checkpoints appended to one stream accumulate; RestartWithCheckpoint
// uses the newest complete one. Automatic checkpoints are configured with
// Options.CheckpointEvery and CheckpointSink.
func (db *DB) Checkpoint(w io.Writer) (CheckpointStats, error) {
	return db.eng.Checkpoint(w)
}

// RestoredCheckpoint returns the checkpoint this database was restarted
// from, or nil for a fresh database or a full-replay restart.
func (db *DB) RestoredCheckpoint() *RestoredCheckpoint {
	return db.eng.RestoredCheckpoint()
}

// ReplayedRecords returns how many operation records the restart redo pass
// applied — the observable recovery bound: with a checkpoint it is limited
// to the log suffix past the checkpoint's per-table low-water marks instead
// of the full history.
func (db *DB) ReplayedRecords() int64 { return db.eng.ReplayedRecords() }

// RestartWithCheckpoint rebuilds a database from a serialized log plus a
// checkpoint snapshot stream (as written by Checkpoint or an automatic
// CheckpointSink). The newest complete checkpoint in snap is restored and
// only the WAL suffix past its begin record is replayed; a torn, corrupt or
// log-inconsistent checkpoint silently falls back to a full replay of the
// log, so recovery always converges to the same state. A nil snap is
// exactly Restart.
func RestartWithCheckpoint(log, snap io.Reader, tables []TableSpec, opts ...Options) (*DB, *WALCorruption, error) {
	defs := make([]*catalog.TableDef, len(tables))
	for i, s := range tables {
		def, err := s.def()
		if err != nil {
			return nil, nil, err
		}
		defs[i] = def
	}
	return open(opts, func(eo engine.Options) (*engine.DB, *WALCorruption, error) {
		return engine.RestartFromSnapshot(defs, log, snap, eo)
	})
}
