package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// applyScript runs a deterministic random operation script against the join
// sources through committed transactions.
func applyScript(t *testing.T, db *engine.DB, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tx := db.Begin()
		var err error
		switch rng.Intn(8) {
		case 0, 1:
			err = tx.Insert("R", rRow(rng.Int63n(60), randName(rng), rng.Int63n(12)))
		case 2:
			err = tx.Insert("S", sRowV(rng.Int63n(12), randName(rng)))
		case 3:
			err = tx.Delete("R", value.Tuple{value.Int(rng.Int63n(60))})
		case 4:
			err = tx.Delete("S", value.Tuple{value.Int(rng.Int63n(12))})
		case 5:
			err = tx.Update("R", value.Tuple{value.Int(rng.Int63n(60))},
				[]string{"c"}, value.Tuple{value.Int(rng.Int63n(12))})
		case 6:
			err = tx.Update("S", value.Tuple{value.Int(rng.Int63n(12))},
				[]string{"c"}, value.Tuple{value.Int(rng.Int63n(12))})
		case 7:
			err = tx.Update("R", value.Tuple{value.Int(rng.Int63n(60))},
				[]string{"b"}, value.Tuple{value.Str(randName(rng))})
		}
		if err != nil {
			if aerr := tx.Abort(); aerr != nil {
				t.Fatalf("abort: %v", aerr)
			}
			continue
		}
		if rng.Intn(5) == 0 { // random aborts exercise CLR propagation
			if err := tx.Abort(); err != nil {
				t.Fatalf("abort: %v", err)
			}
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
}

// TestPropertyFOJConvergesOnRandomHistories: for any random operation
// history, propagating the log brings T to exactly FOJ(R, S). This is
// Theorem 1's consequence, checked exhaustively.
func TestPropertyFOJConvergesOnRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		db := newJoinDB(t)
		seedJoin(t, db)
		applyScript(t, db, seed, 40) // history before the fuzzy mark
		tr, op := prepared(t, db, Config{})
		applyScript(t, db, seed*31+7, 60) // history during propagation
		propagateAll(t, tr)
		want := expectedFOJ(t, op)
		got := op.tTbl.Rows()
		if len(want) != len(got) {
			return false
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok || !visible(op, g).Equal(visible(op, w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFOJPropagationIsIdempotent: redoing any suffix of the log a
// second time leaves T unchanged — the rules must be idempotent because the
// propagator has no valid state identifiers for joined records (§4.2).
func TestPropertyFOJPropagationIsIdempotent(t *testing.T) {
	f := func(seed int64, cut uint8) bool {
		db := newJoinDB(t)
		seedJoin(t, db)
		tr, op := prepared(t, db, Config{})
		applyScript(t, db, seed, 50)
		propagateAll(t, tr)
		after := op.tTbl.Rows()

		// Replay an arbitrary suffix of the already-propagated log.
		end := db.Log().End()
		from := end - wal.LSN(uint64(cut))%end + 1
		if _, _, _, err := tr.propagateRange(from, end, nil); err != nil {
			t.Fatalf("replay: %v", err)
		}
		replayed := op.tTbl.Rows()
		if len(after) != len(replayed) {
			return false
		}
		for k, w := range after {
			g, ok := replayed[k]
			// The hidden per-half LSNs may advance monotonically on replay;
			// every visible column must be untouched.
			if !ok || !visible(op, g).Equal(visible(op, w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertySplitCountersMatchMultiplicity: after any random history, each
// S record's counter equals the number of T records sharing its split value,
// and S has exactly the distinct split values of T.
func TestPropertySplitCountersMatchMultiplicity(t *testing.T) {
	f := func(seed int64) bool {
		db := newSplitDB(t)
		seedSplit(t, db)
		tr, op := preparedSplit(t, db, Config{})
		rng := rand.New(rand.NewSource(seed))
		zips := []int64{50, 5020, 7050, 9000}
		for i := 0; i < 60; i++ {
			tx := db.Begin()
			id := rng.Int63n(40)
			zip := zips[rng.Intn(len(zips))]
			var err error
			switch rng.Intn(4) {
			case 0:
				err = tx.Insert("T", tRow(id, randName(rng), zip, "city"))
			case 1:
				err = tx.Delete("T", value.Tuple{value.Int(id)})
			case 2:
				err = tx.Update("T", value.Tuple{value.Int(id)},
					[]string{"zip", "city"}, value.Tuple{value.Int(zip), value.Str("city")})
			case 3:
				err = tx.Update("T", value.Tuple{value.Int(id)},
					[]string{"name"}, value.Tuple{value.Str(randName(rng))})
			}
			if err != nil {
				if aerr := tx.Abort(); aerr != nil {
					t.Fatal(aerr)
				}
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		propagateAll(t, tr)

		// Recount from the source of truth.
		want := map[string]int64{}
		op.db.Table("T").Scan(func(row value.Tuple, _ wal.LSN) bool {
			want[op.splitKeyOfT(row).Encode()]++
			return true
		})
		got := map[string]int64{}
		for _, s := range op.sTbl.Rows() {
			got[value.Tuple(s[:len(op.splitT)]).Encode()] = s[op.cntPos].AsInt()
		}
		if len(want) != len(got) {
			return false
		}
		for k, w := range want {
			if got[k] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCompactedParallelMatchesRaw: for any random split history,
// every cell of the {workers 1, 8} × {compaction off, on} matrix produces
// byte-identical R and S images. The raw serial run (workers=1, compaction
// off) is the baseline; the other three cells — compacted serial, raw
// parallel, compacted parallel — must match it exactly. This is the
// soundness property of net-effect compaction: replaying the coalesced
// stream is indistinguishable from replaying the raw log.
func TestPropertyCompactedParallelMatchesRaw(t *testing.T) {
	f := func(seed int64) bool {
		run := func(workers int, mode CompactionMode) (map[string]value.Tuple, map[string]value.Tuple) {
			db := newSplitDB(t)
			seedSplit(t, db)
			applySplitHistory(t, db, seed*13+5, 30) // history before population
			tr, op := preparedSplit(t, db, Config{
				PropagateWorkers: workers, Compaction: mode, BatchSize: 8,
			})
			applySplitHistory(t, db, seed, 90) // history during propagation
			propagateThrottled(t, tr)
			return op.rTbl.Rows(), op.sTbl.Rows()
		}
		baseR, baseS := run(1, CompactionOff)
		for _, cell := range []struct {
			workers int
			mode    CompactionMode
		}{{1, CompactionOn}, {8, CompactionOff}, {8, CompactionOn}} {
			gotR, gotS := run(cell.workers, cell.mode)
			if len(gotR) != len(baseR) || len(gotS) != len(baseS) {
				return false
			}
			for k, w := range baseR {
				g, ok := gotR[k]
				if !ok || !g.Equal(w) {
					return false
				}
			}
			for k, w := range baseS {
				g, ok := gotS[k]
				if !ok || !g.Equal(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPropertyShadowLocksCoverActiveTxnWrites: after propagation, every
// record written by a still-active transaction carries a transferred lock,
// and the lock disappears once the transaction's end record is propagated.
func TestPropertyShadowLocksCoverActiveTxnWrites(t *testing.T) {
	f := func(seed int64) bool {
		db := newJoinDB(t)
		seedJoin(t, db)
		tr, _ := prepared(t, db, Config{})
		rng := rand.New(rand.NewSource(seed))
		// An active transaction updates a few records and stays open.
		active := db.Begin()
		nWrites := 1 + rng.Intn(3)
		for i := 0; i < nWrites; i++ {
			key := value.Tuple{value.Int(int64(1 + i))}
			if err := active.Update("R", key, []string{"b"}, value.Tuple{value.Str("held")}); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		propagateAll(t, tr)
		if tr.Shadow().LockedKeys() == 0 {
			return false // active writes must be shadow-locked
		}
		if err := active.Commit(); err != nil {
			t.Fatal(err)
		}
		propagateAll(t, tr)
		return tr.Shadow().LockedKeys() == 0 // all released at the commit record
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
