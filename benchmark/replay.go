package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/lock"
	"nbschema/internal/storage"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// The layer replay times each layer's public functions on their own: one
// goroutine, a freshly loaded table of the workload's size, the workload's
// own key stream, replayCalls calls per function. It answers "where does a
// transaction's time go" by construction: engine.txn_residual_ns is what the
// measured transaction costs beyond the sum of the layer calls it is made of.

const replayCalls = 200_000

// cost is one replayed function's mean time and heap allocations per call.
type cost struct{ ns, allocs float64 }

// timed runs f(0..n-1) and reports the cost per call. The replay is the only
// goroutine running, so the allocation counter moves for f alone.
func timed(n int, f func(i int)) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return cost{ns: float64(d) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// replayKeys draws n update keys from the workload's own operation stream.
func replayKeys(s *spec, seed int64, n int) []int64 {
	g := newGenerator(s, seed, -1, 0) // trial -1: a stream no trial uses
	keys := make([]int64, 0, n)
	var p plan
	for len(keys) < n {
		g.next(&p)
		if p.n != opsPerTxn {
			continue // an insert/delete pair carries no update keys
		}
		for i := 0; i < p.n && len(keys) < n; i++ {
			keys = append(keys, p.ops[i].key%int64(s.rows))
		}
	}
	return keys
}

// runReplay measures every layer; the result maps a metric stem ("value.
// key_encode", "storage.get", …) to its cost.
func runReplay(s *spec, seed int64, calls int) (map[string]cost, error) {
	const table, index = "replay", "grp_ix"
	groups := max(s.rows/10, 1)
	db := engine.New(engine.Options{})
	if err := createTable(db, table, []catalog.Column{intCol("id", false), intCol("payload", true), intCol("grp", true)}, "id"); err != nil {
		return nil, err
	}
	if err := fill(db, table, s.rows, func(i int64) value.Tuple {
		return value.Tuple{value.Int(i), value.Int(0), value.Int(i % int64(groups))}
	}); err != nil {
		return nil, err
	}
	if err := db.CreateIndex(table, index, []string{"grp"}, false); err != nil {
		return nil, err
	}
	tbl, log, locks := db.Table(table), db.Log(), db.Locks()

	keys := replayKeys(s, seed, calls)
	encs := make([][]byte, calls)
	key := make(value.Tuple, 1)
	for i, k := range keys {
		key[0] = value.Int(k)
		encs[i] = key.AppendEncode(nil)
	}
	setKey := func(i int) value.Tuple { key[0] = value.Int(keys[i]); return key }
	payload, cols, colNames := value.Tuple{value.Int(1)}, []int{1}, []string{"payload"}
	out := map[string]cost{}
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	// engine: whole transactions, before anything else touched the database.
	txns := calls / opsPerTxn
	out["engine.txn_update10"] = timed(txns, func(t int) {
		tx := db.Begin()
		for i := t * opsPerTxn; i < (t+1)*opsPerTxn; i++ {
			check(tx.Update(table, setKey(i), colNames, payload))
		}
		check(tx.Commit())
	})
	out["engine.txn_get10"] = timed(txns, func(t int) {
		tx := db.Begin()
		for i := t * opsPerTxn; i < (t+1)*opsPerTxn; i++ {
			_, err := tx.Get(table, setKey(i))
			check(err)
		}
		check(tx.Commit())
	})
	out["engine.txn_empty"] = timed(txns, func(int) { check(db.Begin().Commit()) })

	// value
	var buf []byte
	out["value.key_encode"] = timed(calls, func(i int) { buf = setKey(i).AppendEncode(buf[:0]) })

	// lock: ten uncontended exclusive acquisitions and their release.
	const replayTxn = wal.TxnID(1) << 40 // no engine transaction has this id
	out["lock.acquire10_release"] = timed(txns, func(t int) {
		for i := t * opsPerTxn; i < (t+1)*opsPerTxn; i++ {
			check(locks.AcquireEnc(replayTxn, table, encs[i], lock.Exclusive))
		}
		locks.ReleaseAll(replayTxn)
	})

	// storage
	out["storage.get"] = timed(calls, func(i int) {
		_, _, err := tbl.GetEnc(setKey(i), encs[i])
		check(err)
	})
	out["storage.update"] = timed(calls, func(i int) {
		_, err := tbl.UpdateEncW(setKey(i), encs[i], cols, payload, 0, nil)
		check(err)
	})
	out["storage.insert_delete"] = timed(calls, func(i int) {
		// One fresh key above the loaded range; the row is built inside the
		// timed call because insert takes ownership of it.
		k := int64(s.rows + i)
		row := value.Tuple{value.Int(k), value.Int(0), value.Int(k % int64(groups))}
		buf = row[:1].AppendEncode(buf[:0])
		check(tbl.InsertEncW(row, buf, 0, nil))
		_, err := tbl.DeleteEncW(row[:1], buf, nil)
		check(err)
	})
	grp := make(value.Tuple, 1)
	out["storage.index_lookup"] = timed(calls, func(i int) {
		grp[0] = value.Int(keys[i] % int64(groups))
		_, _, err := tbl.LookupIndex(index, grp)
		check(err)
	})
	rows := 0
	scan := timed(1, func(int) {
		for pi := 0; pi < tbl.Partitions(); pi++ {
			tbl.FuzzyScanPartition(pi, 0, func(recs []storage.Record) { rows += len(recs) })
		}
	})
	if rows != s.rows {
		check(fmt.Errorf("replay: scan saw %d rows of %d", rows, s.rows))
	}
	out["storage.scan_per_row"] = cost{scan.ns / float64(rows), scan.allocs / float64(rows)}

	// wal: the records are built beforehand, so append is the log's own cost.
	recs := make([]wal.Record, calls)
	for i := range recs {
		recs[i] = wal.Record{Txn: replayTxn, Type: wal.TypeUpdate, Table: table,
			Key: value.Tuple{value.Int(keys[i])}, Cols: cols, Old: payload, New: payload}
	}
	from := log.End() + 1
	out["wal.append"] = timed(calls, func(i int) { log.Append(&recs[i]) })
	out["wal.marshal"] = timed(calls, func(i int) { buf = wal.AppendMarshal(buf[:0], &recs[i]) })
	var sum wal.LSN
	walScan := timed(1, func(int) {
		for _, r := range log.Scan(from, 0) {
			sum += r.LSN
		}
	})
	out["wal.scan_per_rec"] = cost{walScan.ns / float64(calls), walScan.allocs / float64(calls)}
	var image bytes.Buffer
	if _, err := log.WriteTo(&image); err != nil {
		return nil, err
	}
	tail := wal.NewTail(bytes.NewReader(image.Bytes()))
	decoded := 0
	dec := timed(1, func(int) {
		for {
			if _, err := tail.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					check(err)
				}
				return
			}
			decoded++
		}
	})
	if decoded == 0 {
		return nil, fmt.Errorf("replay: log tail decoded no record")
	}
	out["wal.tail_decode"] = cost{dec.ns / float64(decoded), dec.allocs / float64(decoded)}
	return out, fail
}
