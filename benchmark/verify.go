package main

import (
	"fmt"

	"nbschema/internal/engine"
	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// Verification compares the final tables with the oracle. Nothing here asks
// the engine what the answer should be: expected rows come from the clients'
// committed writes (oracle.go) and from the schema change computed here —
// π(T) for the split, R ⟗ S for the join.

// maxProblems bounds the mismatches reported for one trial.
const maxProblems = 8

type verifier struct {
	db       *engine.DB
	problems []string
}

func (v *verifier) failf(format string, args ...any) {
	if len(v.problems) < maxProblems {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// scan visits every row of a table with the positions of the named columns.
func (v *verifier) scan(table string, cols []string, fn func(row value.Tuple, pos []int)) (rows int) {
	tbl := v.db.Table(table)
	if tbl == nil {
		v.failf("%s: table missing", table)
		return 0
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		if pos[i] = tbl.Def().ColIndex(c); pos[i] < 0 {
			v.failf("%s: no column %s", table, c)
			return 0
		}
	}
	tbl.Scan(func(row value.Tuple, _ wal.LSN) bool {
		rows++
		fn(row, pos)
		return true
	})
	return rows
}

// checkKV requires table to hold exactly the keys 0..len(want)-1 with
// want[key] in column valCol, plus the extra keys (rows the clients inserted
// and never updated) with 0 there.
func (v *verifier) checkKV(table, keyCol, valCol string, want []int64, extra map[int64]bool) {
	seen := 0
	n := v.scan(table, []string{keyCol, valCol}, func(row value.Tuple, pos []int) {
		k, got := row[pos[0]].AsInt(), row[pos[1]].AsInt()
		switch {
		case k >= 0 && k < int64(len(want)):
			seen++
			if got != want[k] {
				v.failf("%s[%d].%s = %d, oracle says %d", table, k, valCol, got, want[k])
			}
		case extra[k]:
			seen++
			if got != 0 {
				v.failf("%s[%d].%s = %d, inserted row should have 0", table, k, valCol, got)
			}
		default:
			v.failf("%s: unexpected key %d", table, k)
		}
	})
	if exp := len(want) + len(extra); n != exp || seen != exp {
		v.failf("%s: %d rows (%d expected keys), oracle says %d", table, n, seen, exp)
	}
}

// verify checks the final state of one trial. switched says whether the
// transformation reached switchover (always false on steady_mixed).
func verify(s *spec, db *engine.DB, clients []*clientOracle, switched bool) []string {
	v := &verifier{db: db}
	v.checkKV("dummy", "id", "payload", merged(clients, logDummy), nil)
	if s.kind == kindFOJ {
		v.verifyJoin(s, clients, switched)
	} else {
		v.verifySplit(s, clients, switched)
	}
	return v.problems
}

func (v *verifier) verifySplit(s *spec, clients []*clientOracle, switched bool) {
	// oracle(T): the loaded keys with their last committed payload, plus the
	// slab rows the clients left inserted.
	payload := merged(clients, logT)
	slab := map[int64]bool{}
	for c, o := range clients {
		for slot, present := range o.slab {
			if present {
				slab[int64(s.rows)+int64(c)*slabSize+int64(slot)] = true
			}
		}
	}
	grpOf := func(id int64) int64 { return id % int64(s.groups) }
	checkGrp := func(table string) func(value.Tuple, []int) {
		return func(row value.Tuple, pos []int) {
			if id, grp := row[pos[0]].AsInt(), row[pos[1]].AsInt(); grp != grpOf(id) {
				v.failf("%s[%d].grp = %d, want %d", table, id, grp, grpOf(id))
			}
		}
	}
	if !switched {
		v.checkKV("T", "id", "payload", payload, slab)
		v.scan("T", []string{"id", "grp", "info"}, func(row value.Tuple, pos []int) {
			checkGrp("T")(row, pos)
			if grp, info := row[pos[1]].AsInt(), row[pos[2]].AsInt(); info != grp*10 {
				v.failf("T: grp %d has info %d, FD says %d", grp, info, grp*10)
			}
		})
		return
	}
	// T_base = π_{id,payload,grp}(oracle(T)).
	v.checkKV("T_base", "id", "payload", payload, slab)
	v.scan("T_base", []string{"id", "grp"}, checkGrp("T_base"))
	// T_grp = one row per group present in oracle(T), info by the FD, and
	// the reference counter equal to the group's row count.
	count := make([]int64, s.groups)
	for id := int64(0); id < int64(s.rows); id++ {
		count[grpOf(id)]++
	}
	for k := range slab {
		count[grpOf(k)]++
	}
	groups := 0
	for _, n := range count {
		if n > 0 {
			groups++
		}
	}
	n := v.scan("T_grp", []string{"grp", "info", "_cnt"}, func(row value.Tuple, pos []int) {
		grp, info, cnt := row[pos[0]].AsInt(), row[pos[1]].AsInt(), row[pos[2]].AsInt()
		switch {
		case grp < 0 || grp >= int64(s.groups):
			v.failf("T_grp: unexpected group %d", grp)
		case info != grp*10:
			v.failf("T_grp[%d].info = %d, FD says %d", grp, info, grp*10)
		case cnt != count[grp]:
			v.failf("T_grp[%d]._cnt = %d, oracle counts %d rows", grp, cnt, count[grp])
		}
	})
	if n != groups {
		v.failf("T_grp: %d rows, oracle has %d groups", n, groups)
	}
	if v.db.Table("T") != nil {
		v.failf("T still exists after switchover")
	}
}

func (v *verifier) verifyJoin(s *spec, clients []*clientOracle, switched bool) {
	payload := merged(clients, logT) // oracle(R).payload, continued on RS
	info := merged(clients, logS)    // oracle(S).info
	if !switched {
		v.checkKV("R", "id", "payload", payload, nil)
		v.checkKV("S", "jv", "info", info, nil)
		return
	}
	// RS = oracle(R) ⟗ oracle(S) on jv, computed here: every R row once,
	// joined with its S row when jv has one, plus S rows no R row matches.
	matched := make([]bool, s.sRows)
	seen := make([]bool, s.rows)
	rRows, sOnly := 0, 0
	n := v.scan("RS", []string{"id", "payload", "jv", "info", "_r", "_s"}, func(row value.Tuple, pos []int) {
		id, jv := row[pos[0]], row[pos[2]].AsInt()
		hasR, hasS := row[pos[4]].AsBool(), row[pos[5]].AsBool()
		wantS := jv >= 0 && jv < int64(s.sRows)
		if hasS != wantS {
			v.failf("RS(jv=%d): _s = %v, oracle says %v", jv, hasS, wantS)
			return
		}
		if hasS && row[pos[3]].AsInt() != info[jv] {
			v.failf("RS(jv=%d).info = %d, oracle says %d", jv, row[pos[3]].AsInt(), info[jv])
		}
		if !hasS && !row[pos[3]].IsNull() {
			v.failf("RS(jv=%d).info = %s, want NULL (no S row)", jv, row[pos[3]])
		}
		if !hasR {
			sOnly++
			if !id.IsNull() {
				v.failf("RS(jv=%d): S-only row carries id %s", jv, id)
			}
			return
		}
		rRows++
		i := id.AsInt()
		if i < 0 || i >= int64(s.rows) || seen[i] {
			v.failf("RS: unexpected or repeated R id %d", i)
			return
		}
		seen[i] = true
		if jv != s.jvOf(i) {
			v.failf("RS[%d].jv = %d, want %d", i, jv, s.jvOf(i))
		}
		if got := row[pos[1]].AsInt(); got != payload[i] {
			v.failf("RS[%d].payload = %d, oracle says %d", i, got, payload[i])
		}
		if hasS {
			matched[jv] = true
		}
	})
	// S row jv has an R match iff some id ≡ jv (mod 2·sRows) is below rows.
	wantSOnly := 0
	for jv := range matched {
		if jv >= s.rows {
			wantSOnly++
		} else if !matched[jv] {
			v.failf("RS: S row jv=%d joined with no R row", jv)
		}
	}
	if rRows != s.rows || sOnly != wantSOnly || n != s.rows+wantSOnly {
		v.failf("RS: %d rows (%d with R, %d S-only), oracle says %d + %d", n, rRows, sOnly, s.rows, wantSOnly)
	}
	if v.db.Table("R") != nil || v.db.Table("S") != nil {
		v.failf("R or S still exists after switchover")
	}
}
