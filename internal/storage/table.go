// Package storage implements in-memory heap tables with per-record LSNs and
// hash indexes, plus the fuzzy (lock-free, chunked) scan the transformation
// framework uses for its initial population step.
//
// Storage is physically synchronized with short-held latches; transactional
// isolation (record locks) lives a layer above, in internal/engine. This is
// exactly the split the paper relies on: a fuzzy read takes no transactional
// locks but is physically safe.
//
// Each heap is split into a power-of-two number of partitions with one
// RWMutex per partition, so operations on independent keys never contend.
// Hash indexes carry their own mutex (the uniqueness serialization point).
// The latch order is: index registry (ixMu) → partition(s), ascending →
// per-index mutex.
package storage

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nbschema/internal/catalog"
	"nbschema/internal/fault"
	"nbschema/internal/obs"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Common storage errors.
var (
	ErrDuplicateKey = errors.New("storage: duplicate primary key")
	ErrNotFound     = errors.New("storage: record not found")
)

// Record is one stored row plus its state identifier (the LSN of the log
// record that produced this version), as required by the fuzzy-copy
// technique the framework builds on.
type Record struct {
	Row value.Tuple
	LSN wal.LSN

	// vc heads the record's version chain in MVCC mode (nil otherwise). The
	// head describes the current contents (row aliases Row); prev links
	// reach older versions for snapshot readers.
	vc *version

	// Key caches the record's encoded primary key — the durable string the
	// partition map and indexes are keyed by — so re-keying and index
	// maintenance never re-derive it. Maintained under the partition latch.
	// Scans hand it out with the row, and InsertBatch stores a row under it
	// as given, so a copy that keeps the primary key (the split's R rows)
	// shares the source's key string; left empty, InsertBatch derives it.
	Key string
}

// partition is one shard of a table's heap.
type partition struct {
	mu   sync.RWMutex
	rows map[string]*Record
	// dead holds the version chains of deleted keys in MVCC mode, headed by
	// a tombstone, so snapshot readers can still reach the older versions.
	// Lazily allocated; GC removes entries once no snapshot can see them.
	dead map[string]*version
	// scratch is the key-encoding buffer updates reuse to derive the new
	// primary key without allocating. Only touched with mu held exclusively.
	scratch []byte
}

// latchSpins bounds how long a writer polls a held partition latch before it
// parks: about 100µs on the reference host, a little longer than a fuzzy
// scan holds its read latch to copy one 256-row chunk out.
const latchSpins = 4096

// lock latches the partition exclusively for a single-record write. A writer
// that finds the latch held polls it for a bounded time before parking on
// it. The holders it meets hold it briefly — another writer for one record,
// a fuzzy scan for one chunk — while a parked writer, once woken, queues
// behind whatever is running on the waker's processor; with every processor
// busy (foreground clients plus a transformation's population scan) that
// queueing measured 2–4ms per conflict and was the foreground's whole p99
// while a transformation ran. The poll is not announced to readers, so it
// cannot starve them, and it gives up into Lock, which cannot be starved.
func (p *partition) lock() {
	for i := 0; i < latchSpins; i++ {
		if p.mu.TryLock() {
			return
		}
	}
	p.mu.Lock()
}

// deadChain records head as the dead chain of key, allocating the map on
// first use. Call with the partition latch held exclusively.
func (p *partition) deadChain(key string, head *version) {
	if p.dead == nil {
		p.dead = make(map[string]*version)
	}
	p.dead[key] = head
}

// Table is an in-memory heap table keyed by encoded primary key, sharded
// into partitions by key hash.
type Table struct {
	def    *catalog.TableDef
	faults *fault.Registry

	// Metric handles (nil when observability is off; nil handles are no-ops).
	mInserts, mUpdates, mDeletes *obs.Counter
	mGets, mFuzzyChunks          *obs.Counter
	mSnapGets, mSnapChunks       *obs.Counter
	mVersions                    *obs.Gauge
	mChainLen                    *obs.Histogram
	mGCReclaim                   *obs.Counter

	// MVCC mode: a plain bool so the disabled hot paths pay one branch and
	// no atomic loads. clock is the engine-owned commit clock and oldest the
	// oldest-active-snapshot watermark (MaxUint64 when no snapshot is
	// active); gcFloor combines them into the trim bound. nVersions tracks
	// the table's retained version structs so DetachObs can settle the
	// shared gauge when the table is dropped; detachMu orders that settling
	// against a concurrent GC sweep's reclaim.
	mvcc      bool
	clock     *atomic.Uint64
	oldest    *atomic.Uint64
	nVersions atomic.Int64
	detachMu  sync.Mutex
	detached  bool

	parts []*partition
	mask  uint32

	// indexes is ordered by name: the order in which a batch insert takes
	// the index mutexes.
	ixMu    sync.RWMutex
	indexes []*Index
}

// DefaultPartitions returns the heap partition count used when none is
// configured: the next power of two at or above 2×GOMAXPROCS, at least 8.
func DefaultPartitions() int {
	return ceilPow2(2 * runtime.GOMAXPROCS(0))
}

// ceilPow2 rounds n up to a power of two, clamped to [8, 256].
func ceilPow2(n int) int {
	p := 8
	for p < n && p < 256 {
		p <<= 1
	}
	return p
}

// NewTable returns an empty table for the given definition with the default
// partition count.
func NewTable(def *catalog.TableDef) *Table {
	return NewTablePartitions(def, 0)
}

// NewTablePartitions returns an empty table with the given heap partition
// count. parts <= 0 selects DefaultPartitions; other values are rounded up
// to a power of two. Parts = 1 reproduces the single-latch heap (for
// ablations).
func NewTablePartitions(def *catalog.TableDef, parts int) *Table {
	n := 1
	if parts <= 0 {
		n = DefaultPartitions()
	} else {
		for n < parts {
			n <<= 1
		}
	}
	t := &Table{
		def:   def,
		parts: make([]*partition, n),
		mask:  uint32(n - 1),
	}
	for i := range t.parts {
		t.parts[i] = &partition{rows: make(map[string]*Record)}
	}
	return t
}

// Def returns the table definition.
func (t *Table) Def() *catalog.TableDef { return t.def }

// Partitions returns the number of heap partitions.
func (t *Table) Partitions() int { return len(t.parts) }

// FNV-1a, inlined so key routing never round-trips through the hash.Hash
// interface (which costs two allocations per key).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvString(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// HashKey is the FNV-1a hash of an encoded key, the one partition routing
// uses; other layers stripe their own per-key state with it.
func HashKey(b []byte) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range b {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	return h
}

// partIndex routes an encoded primary key to its partition index.
func (t *Table) partIndex(enc string) int {
	return int(fnvString(enc) & t.mask)
}

// partIndexB is partIndex for a caller-encoded key buffer.
func (t *Table) partIndexB(enc []byte) int {
	return int(HashKey(enc) & t.mask)
}

// partOf routes an encoded primary key to its partition.
func (t *Table) partOf(enc string) *partition { return t.parts[t.partIndex(enc)] }

// SetFaults installs a fault registry. Insert, Update and Delete hit both a
// generic point ("storage.insert", ...) and a table-qualified one
// ("storage.insert.<table>"), so a test can target writes to one table —
// e.g. only a transformation's hidden target. Call before the table is
// shared.
func (t *Table) SetFaults(reg *fault.Registry) { t.faults = reg }

// SetObs wires the table's storage-operation counters: "storage.insert",
// "storage.update", "storage.delete", "storage.get" count the respective
// record operations across all tables, "storage.fuzzy.chunk" counts the
// chunks delivered by fuzzy scans, and the "storage.partitions" gauge
// reports the per-table partition count. Call before the table is shared.
func (t *Table) SetObs(reg *obs.Registry) {
	t.mInserts = reg.Counter("storage.insert")
	t.mUpdates = reg.Counter("storage.update")
	t.mDeletes = reg.Counter("storage.delete")
	t.mGets = reg.Counter("storage.get")
	t.mFuzzyChunks = reg.Counter("storage.fuzzy.chunk")
	t.mSnapGets = reg.Counter("storage.snapshot.get")
	t.mSnapChunks = reg.Counter("storage.snapshot.chunk")
	t.mVersions = reg.Gauge("storage.versions")
	t.mChainLen = reg.Histogram("storage.mvcc.chain_len")
	t.mGCReclaim = reg.Counter("storage.mvcc.gc.reclaimed")
	reg.Gauge("storage.partitions").Set(int64(len(t.parts)))
}

// DetachObs settles the table's contribution to the shared storage.versions
// gauge; the engine calls it when the table is dropped so retained-version
// accounting does not leak across drops. A GC sweep that still holds the
// dropped table keeps reclaiming memory, but its accounting becomes a no-op
// (reclaim checks the detached flag under the same mutex), so the gauge is
// neither double-subtracted nor driven negative.
func (t *Table) DetachObs() {
	t.detachMu.Lock()
	t.detached = true
	if n := t.nVersions.Swap(0); n != 0 {
		t.mVersions.Add(-n)
	}
	t.detachMu.Unlock()
}

// faultHit fires the generic and table-qualified fault points for op. The
// table-qualified name is only built when the registry is armed.
func (t *Table) faultHit(op string) error {
	if !t.faults.Armed() {
		return nil
	}
	if err := t.faults.Hit("storage." + op); err != nil {
		return err
	}
	return t.faults.Hit("storage." + op + "." + t.def.Name)
}

// Len returns the number of stored records.
func (t *Table) Len() int {
	n := 0
	for _, p := range t.parts {
		p.mu.RLock()
		n += len(p.rows)
		p.mu.RUnlock()
	}
	return n
}

// AppendKeyOfRow appends the encoded primary key of a full row to b, without
// materializing the projected tuple or a string.
func (t *Table) AppendKeyOfRow(b []byte, row value.Tuple) []byte {
	return row.AppendEncodeProject(b, t.def.PrimaryKey)
}

// Insert stores a new row version with the given LSN. The row is cloned.
// In MVCC mode the write is a system write, visible to every snapshot.
func (t *Table) Insert(row value.Tuple, lsn wal.LSN) error {
	return t.InsertEncW(row.Clone(), t.AppendKeyOfRow(nil, row), lsn, nil)
}

// InsertEncW inserts one row with a caller-encoded primary key (enc is not
// retained) and transfer of row ownership: the table stores row without
// cloning, so the caller must treat it as immutable afterwards (replace,
// never mutate — the engine passes the same freshly built tuple it logs to
// the WAL). w carries the writing transaction's MVCC identity: the new
// version joins w's commit cell and the insert is checked
// first-committer-wins against any tombstoned prior life of the key. A nil w
// marks a system write.
func (t *Table) InsertEncW(row value.Tuple, enc []byte, lsn wal.LSN, w *WriteCtx) error {
	if err := t.faultHit("insert"); err != nil {
		return err
	}
	t.mInserts.Add(1)
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	p := t.parts[t.partIndexB(enc)]
	p.lock()
	defer p.mu.Unlock()
	t.lockIndexes()
	defer t.unlockIndexes()
	return t.insertLocked(p, &Record{Row: row, LSN: lsn, Key: string(enc)}, w)
}

// InsertBatch inserts recs in order, like InsertEncW row by row, but takes
// the index registry, every partition latch the batch touches and every
// index mutex once for the whole batch. Ownership of the rows and of recs
// itself passes to the table: the records are stored where they stand, one
// allocation per batch, so the caller must not reuse the slice. A record
// with an empty Key has it derived from its row. The insert fault points
// still fire once per row, before any latch is taken, and a failing row —
// injected fault, duplicate key, unique-index violation — ends the batch:
// the rows before it are stored exactly as single inserts would have left
// them, the failing row leaves no trace, and the count of stored rows is
// returned with the error.
//
// Holding the latches for a whole batch suits tables no transaction can
// reach (a transformation's hidden targets, tables being restored); on a
// public table it delays concurrent writers of the touched partitions by the
// length of the batch.
func (t *Table) InsertBatch(recs []Record, w *WriteCtx) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	var ferr error
	if t.faults.Armed() {
		for i := range recs {
			if ferr = t.faultHit("insert"); ferr != nil {
				recs = recs[:i]
				break
			}
		}
	}
	var scratch []byte
	touched := make([]bool, len(t.parts))
	for i := range recs {
		if recs[i].Key == "" {
			scratch = t.AppendKeyOfRow(scratch[:0], recs[i].Row)
			recs[i].Key = string(scratch)
		}
		touched[t.partIndex(recs[i].Key)] = true
	}
	t.mInserts.Add(int64(len(recs)))
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	for pi, p := range t.parts {
		if touched[pi] {
			p.mu.Lock()
		}
	}
	defer func() {
		for pi, p := range t.parts {
			if touched[pi] {
				p.mu.Unlock()
			}
		}
	}()
	t.lockIndexes()
	defer t.unlockIndexes()
	for i := range recs {
		if err := t.insertLocked(t.partOf(recs[i].Key), &recs[i], w); err != nil {
			return i, err
		}
	}
	return len(recs), ferr
}

// lockIndexes takes every index mutex in index order; call with ixMu held
// and after the partition latches.
func (t *Table) lockIndexes() {
	for _, ix := range t.indexes {
		ix.mu.Lock()
	}
}

func (t *Table) unlockIndexes() {
	for _, ix := range t.indexes {
		ix.mu.Unlock()
	}
}

// insertLocked is the one insert body: it stores rec under rec.Key in p and
// in every index, or leaves no trace of it. Call with ixMu read-held, p
// latched exclusively and every index mutex held.
func (t *Table) insertLocked(p *partition, rec *Record, w *WriteCtx) error {
	key := rec.Key
	if _, exists := p.rows[key]; exists {
		return fmt.Errorf("%w: %s in table %s", ErrDuplicateKey, t.def.KeyOf(rec.Row), t.def.Name)
	}
	if t.mvcc {
		// A committed delete of this key after w began is a write-write
		// conflict, exactly like a committed update would be.
		if err := fcwCheck(p.dead[key], w); err != nil {
			return err
		}
	}
	for i, ix := range t.indexes {
		if err := ix.insert(rec.Row, key); err != nil {
			for _, done := range t.indexes[:i] {
				done.remove(rec.Row, key)
			}
			return err
		}
	}
	p.rows[key] = rec
	if t.mvcc {
		// Link any tombstoned prior life of the key so snapshots older than
		// this insert still see the pre-delete versions.
		rec.vc = t.pushVersion(rec.Row, rec.LSN, w, p.dead[key])
		delete(p.dead, key)
		t.trimLocked(rec.vc)
	}
	return nil
}

// Reserve presizes the heap partitions and the indexes for n more rows, so
// loading them never regrows a map. n is the caller's count of the rows to
// come (a source table's Len, a snapshot's row count), spread evenly over
// the partitions the key hash will spread the rows over.
func (t *Table) Reserve(n int) {
	if n <= 0 {
		return
	}
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	per := n/len(t.parts) + 1
	for _, p := range t.parts {
		p.mu.Lock()
		p.rows = grownMap(p.rows, per)
		p.mu.Unlock()
	}
	for _, ix := range t.indexes {
		ix.reserve(n)
	}
}

// grownMap returns m's entries in a map with room for n more.
func grownMap[V any](m map[string]V, n int) map[string]V {
	out := make(map[string]V, len(m)+n)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Get returns the record stored under key, or ErrNotFound. The returned
// tuple is shared and read-only: writers replace whole tuples and never
// mutate one in place, so a reader may retain it but must not modify it.
func (t *Table) Get(key value.Tuple) (value.Tuple, wal.LSN, error) {
	return t.GetEnc(key, key.AppendEncode(nil))
}

// GetEnc is Get with a caller-encoded key buffer: the lookup allocates
// nothing. key is only used for the not-found error message.
func (t *Table) GetEnc(key value.Tuple, enc []byte) (value.Tuple, wal.LSN, error) {
	t.mGets.Add(1)
	p := t.parts[t.partIndexB(enc)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	rec, ok := p.rows[string(enc)]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s in table %s", ErrNotFound, key, t.def.Name)
	}
	return rec.Row, rec.LSN, nil
}

// HasEnc reports whether a record exists under the caller-encoded key,
// allocating nothing — the existence probe for duplicate-key checks, which
// must not pay Get's not-found error construction.
func (t *Table) HasEnc(enc []byte) bool {
	p := t.parts[t.partIndexB(enc)]
	p.mu.RLock()
	_, ok := p.rows[string(enc)]
	p.mu.RUnlock()
	return ok
}

// Update is UpdateEncW as a system write (visible to every snapshot in MVCC
// mode) that encodes key itself.
func (t *Table) Update(key value.Tuple, cols []int, vals value.Tuple, lsn wal.LSN) (value.Tuple, error) {
	return t.UpdateEncW(key, key.AppendEncode(nil), cols, vals, lsn, nil)
}

// UpdateEncW overwrites the values of the given column positions of the
// record under the caller-encoded primary key enc (not retained; key is only
// used for error messages), sets the record LSN and returns the updated full
// row, shared and read-only. If the primary key changes, the record is
// re-keyed, which may move it to another partition; both partitions are then
// latched in ascending order.
//
// w carries the writing transaction's MVCC identity: the old image stays
// reachable on the version chain, and the write is checked
// first-committer-wins against the chain's newest committed version. A
// re-keying update tombstones the old key (snapshots keep finding the
// pre-move image there) and starts the new key's chain, linked to any
// tombstoned prior life of that key. A nil w marks a system write.
func (t *Table) UpdateEncW(key value.Tuple, enc []byte, cols []int, vals value.Tuple, lsn wal.LSN, w *WriteCtx) (value.Tuple, error) {
	if err := t.faultHit("update"); err != nil {
		return nil, err
	}
	t.mUpdates.Add(1)
	if len(cols) != len(vals) {
		return nil, fmt.Errorf("storage: update arity mismatch: %d cols, %d vals", len(cols), len(vals))
	}
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	pi := t.partIndexB(enc)
	p := t.parts[pi]
	p.lock()
	for {
		rec, ok := p.rows[string(enc)]
		if !ok {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %s in table %s", ErrNotFound, key, t.def.Name)
		}
		newRow := rec.Row.Clone()
		for i, c := range cols {
			if c < 0 || c >= len(newRow) {
				p.mu.Unlock()
				return nil, fmt.Errorf("storage: update of table %s: column %d out of range", t.def.Name, c)
			}
			newRow[c] = vals[i]
		}
		// The new key is derived into the partition's scratch buffer (safe:
		// p.mu is held exclusively); a durable string is only materialized
		// when the key actually changes.
		p.scratch = t.AppendKeyOfRow(p.scratch[:0], newRow)
		newEnc := p.scratch
		qi := t.partIndexB(newEnc)
		q := t.parts[qi]
		if qi != pi {
			// Latch the target partition respecting ascending order. When it
			// sorts below the source, drop and retake both and re-validate:
			// the record may have been mutated while unlatched (the caller's
			// record lock normally prevents that, but storage stays correct
			// without relying on it).
			if qi > pi {
				q.mu.Lock()
			} else {
				p.mu.Unlock()
				q.mu.Lock()
				p.mu.Lock()
				cur, ok := p.rows[string(enc)]
				if !ok || cur != rec {
					q.mu.Unlock()
					continue // restart against the fresh record
				}
				// Recompute the new row under both latches in case the record
				// changed while unlatched; restart if the target moved.
				newRow = rec.Row.Clone()
				for i, c := range cols {
					newRow[c] = vals[i]
				}
				p.scratch = t.AppendKeyOfRow(p.scratch[:0], newRow)
				newEnc = p.scratch
				if t.partIndexB(newEnc) != qi {
					q.mu.Unlock()
					continue
				}
			}
			if _, exists := q.rows[string(newEnc)]; exists {
				q.mu.Unlock()
				p.mu.Unlock()
				return nil, fmt.Errorf("%w: update re-keys %s onto existing %s", ErrDuplicateKey, key, t.def.KeyOf(newRow))
			}
			newKey := string(newEnc) // durable: keys the target partition map
			if t.mvcc {
				err := fcwCheck(rec.vc, w)
				if err == nil {
					err = fcwCheck(q.dead[newKey], w)
				}
				if err != nil {
					q.mu.Unlock()
					p.mu.Unlock()
					return nil, err
				}
			}
			oldKey := rec.Key
			for _, ix := range t.indexes {
				ix.removeOne(rec.Row, oldKey)
			}
			if t.mvcc {
				// Tombstone the old key so snapshots keep finding the
				// pre-move image, then start the new key's chain.
				dead := t.pushVersion(nil, lsn, w, rec.vc)
				p.deadChain(oldKey, dead)
				t.trimLocked(dead)
				rec.vc = t.pushVersion(newRow, lsn, w, q.dead[newKey])
				delete(q.dead, newKey)
				t.trimLocked(rec.vc)
			}
			rec.Row = newRow
			rec.LSN = lsn
			delete(p.rows, oldKey)
			rec.Key = newKey
			q.rows[newKey] = rec
			var ixErr error
			for _, ix := range t.indexes {
				if err := ix.insertOne(rec.Row, newKey); err != nil {
					ixErr = err
					break
				}
			}
			q.mu.Unlock()
			p.mu.Unlock()
			if ixErr != nil {
				return nil, ixErr
			}
			return newRow, nil
		}
		// Same-partition path (covers the common no-re-key case).
		sameKey := string(newEnc) == rec.Key
		var newKey string
		if !sameKey {
			if _, exists := p.rows[string(newEnc)]; exists {
				p.mu.Unlock()
				return nil, fmt.Errorf("%w: update re-keys %s onto existing %s", ErrDuplicateKey, key, t.def.KeyOf(newRow))
			}
			newKey = string(newEnc)
		}
		if t.mvcc {
			err := fcwCheck(rec.vc, w)
			if err == nil && !sameKey {
				err = fcwCheck(p.dead[newKey], w)
			}
			if err != nil {
				p.mu.Unlock()
				return nil, err
			}
		}
		// A posting pairs an index key with the primary key: an index none of
		// whose columns is written keeps its entry unless the row re-keys.
		oldKey := rec.Key
		for _, ix := range t.indexes {
			if !sameKey || ix.covers(cols) {
				ix.removeOne(rec.Row, oldKey)
			}
		}
		if t.mvcc {
			if !sameKey {
				dead := t.pushVersion(nil, lsn, w, rec.vc)
				p.deadChain(oldKey, dead)
				t.trimLocked(dead)
				rec.vc = t.pushVersion(newRow, lsn, w, p.dead[newKey])
				delete(p.dead, newKey)
				t.trimLocked(rec.vc)
			} else {
				rec.vc = t.pushVersion(newRow, lsn, w, rec.vc)
				t.trimLocked(rec.vc)
			}
		}
		rec.Row = newRow
		rec.LSN = lsn
		if !sameKey {
			delete(p.rows, oldKey)
			rec.Key = newKey
			p.rows[newKey] = rec
		}
		var ixErr error
		for _, ix := range t.indexes {
			if !sameKey || ix.covers(cols) {
				if err := ix.insertOne(rec.Row, rec.Key); err != nil {
					ixErr = err
					break
				}
			}
		}
		p.mu.Unlock()
		if ixErr != nil {
			return nil, ixErr
		}
		return newRow, nil
	}
}

// SetLSN bumps only the state identifier of an existing record. Split
// propagation rule 10 requires this ("The LSN is changed even if no
// attribute values ... are updated").
func (t *Table) SetLSN(key value.Tuple, lsn wal.LSN) error {
	enc := key.Encode()
	p := t.partOf(enc)
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.rows[enc]
	if !ok {
		return fmt.Errorf("%w: %s in table %s", ErrNotFound, key, t.def.Name)
	}
	rec.LSN = lsn
	if rec.vc != nil {
		// An LSN-only bump mutates the head version in place (no new chain
		// entry: the row did not change, and the head is what the current
		// image aliases). Safe under the exclusive partition latch.
		rec.vc.lsn = lsn
	}
	return nil
}

// Delete is DeleteEncW as a system write that encodes key itself.
func (t *Table) Delete(key value.Tuple) (value.Tuple, error) {
	return t.DeleteEncW(key, key.AppendEncode(nil), nil)
}

// DeleteEncW removes the record stored under the caller-encoded primary key
// enc (not retained; key is only used for error messages) and returns its
// last row image. w carries the writing transaction's MVCC identity: the
// record's chain moves to the partition's dead map under a tombstone, so
// snapshot readers still reach the older versions; the delete is checked
// first-committer-wins against the chain's newest committed version. A nil w
// marks a system write.
func (t *Table) DeleteEncW(key value.Tuple, enc []byte, w *WriteCtx) (value.Tuple, error) {
	if err := t.faultHit("delete"); err != nil {
		return nil, err
	}
	t.mDeletes.Add(1)
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	p := t.parts[t.partIndexB(enc)]
	p.lock()
	defer p.mu.Unlock()
	rec, ok := p.rows[string(enc)]
	if !ok {
		return nil, fmt.Errorf("%w: %s in table %s", ErrNotFound, key, t.def.Name)
	}
	if t.mvcc {
		if err := fcwCheck(rec.vc, w); err != nil {
			return nil, err
		}
	}
	row, pk := rec.Row, rec.Key
	for _, ix := range t.indexes {
		ix.removeOne(row, pk)
	}
	delete(p.rows, pk)
	if t.mvcc {
		dead := t.pushVersion(nil, 0, w, rec.vc)
		p.deadChain(pk, dead)
		t.trimLocked(dead)
	}
	// A batch-inserted record lives in its batch's allocation: clear the dead
	// slot so it pins neither the row nor its version chain.
	*rec = Record{}
	return row, nil
}

// Scan calls fn for every record under a read latch, one partition at a
// time, in unspecified order. fn must not modify the table. The row passed
// to fn is the live tuple; fn must clone it if it retains it.
func (t *Table) Scan(fn func(row value.Tuple, lsn wal.LSN) bool) {
	for _, p := range t.parts {
		p.mu.RLock()
		for _, rec := range p.rows {
			if !fn(rec.Row, rec.LSN) {
				p.mu.RUnlock()
				return
			}
		}
		p.mu.RUnlock()
	}
}

// Scan-buffer pools. The chunked scans list a partition's keys and copy
// record headers out in chunks; both buffers are reused across scans rather
// than allocated per partition. Pooled as pointers so Put does not box the
// slice header, and cleared before Put so pooled arrays pin neither key
// strings nor row tuples.
var (
	scanKeysPool = sync.Pool{New: func() any { s := make([]string, 0, 512); return &s }}
	scanRecsPool = sync.Pool{New: func() any { s := make([]Record, 0, 256); return &s }}
)

func putScanKeys(kp *[]string, keys []string) {
	clear(keys[:cap(keys)])
	*kp = keys[:0]
	scanKeysPool.Put(kp)
}

func putScanRecs(rp *[]Record, buf []Record) {
	clear(buf[:cap(buf)])
	*rp = buf[:0]
	scanRecsPool.Put(rp)
}

// FuzzyScanPartition reads one heap partition without transactional locks,
// in chunks: each chunk is copied out under the partition latch and delivered
// to fn with no latch held, so fn may block (a priority-throttle sleep)
// without stalling writers, and concurrent updates land between chunks. The
// result may therefore mix record versions from before and during the scan,
// exactly the fuzziness the framework's log propagation repairs. Different
// partitions can be scanned concurrently from different goroutines — that is
// how parallel initial population divides its work. chunk <= 0 selects a
// default. The chunk slice is reused across chunks and returned to a pool
// when the scan ends: fn may retain the Record values (rows are shared,
// read-only tuples) but must not retain the slice itself.
func (t *Table) FuzzyScanPartition(pi int, chunk int, fn func(rows []Record)) {
	if chunk <= 0 {
		chunk = 256
	}
	p := t.parts[pi]
	// Snapshot the key set first; records inserted after this point are
	// missed (repaired by log propagation), records deleted after this
	// point are skipped.
	kp := scanKeysPool.Get().(*[]string)
	keys := *kp
	p.mu.RLock()
	for k := range p.rows {
		keys = append(keys, k)
	}
	p.mu.RUnlock()

	rp := scanRecsPool.Get().(*[]Record)
	buf := *rp
	for start := 0; start < len(keys); start += chunk {
		end := min(start+chunk, len(keys))
		t.mFuzzyChunks.Add(1)
		buf = buf[:0]
		p.mu.RLock()
		for _, k := range keys[start:end] {
			if rec, ok := p.rows[k]; ok {
				buf = append(buf, Record{Row: rec.Row, LSN: rec.LSN, Key: k})
			}
		}
		p.mu.RUnlock()
		fn(buf)
	}
	putScanRecs(rp, buf)
	putScanKeys(kp, keys)
}

// Rows returns a deep copy of all rows keyed by encoded primary key
// (for tests and verification).
func (t *Table) Rows() map[string]value.Tuple {
	out := make(map[string]value.Tuple, t.Len())
	for _, p := range t.parts {
		p.mu.RLock()
		for k, rec := range p.rows {
			out[k] = rec.Row.Clone()
		}
		p.mu.RUnlock()
	}
	return out
}
