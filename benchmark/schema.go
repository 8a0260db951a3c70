package main

import (
	"fmt"

	"nbschema/internal/catalog"
	"nbschema/internal/core"
	"nbschema/internal/engine"
	"nbschema/internal/value"
)

// Logical tables the oracle tracks. After switchover the clients address the
// new tables, but what they write is still the logical column of the old one
// (T.payload lives on in T_base, R.payload in RS).
const (
	logT = iota // split source T, or FOJ source R
	logS        // FOJ source S
	logDummy
	nLogical
)

// target is one table the clients aim operations at.
type target struct {
	table    string
	fallback string // table to address once table is no longer accessible
	rsKey    bool   // table is RS: its key is (id, jv), not (id)
	logical  int
	keys     int64
	col      string
	cum      float64
	// mkRow builds the full row of slab key k (nil = no inserts/deletes).
	mkRow func(k int64) value.Tuple
}

func (s *spec) targets() []target {
	switch s.kind {
	case kindFOJ:
		// The source share is divided between R and S by table size.
		total := float64(s.rows + s.sRows)
		r := s.srcFrac * float64(s.rows) / total
		return []target{
			{table: "R", fallback: "RS", logical: logT, keys: int64(s.rows), col: "payload", cum: r},
			{table: "S", fallback: "RS", logical: logS, keys: int64(s.sRows), col: "info", cum: s.srcFrac},
			{table: "dummy", logical: logDummy, keys: int64(s.rows), col: "payload", cum: 1},
		}
	default:
		return []target{
			{table: "T", fallback: "T_base", logical: logT, keys: int64(s.rows), col: "payload", cum: s.srcFrac, mkRow: s.tRow},
			{table: "dummy", logical: logDummy, keys: int64(s.rows), col: "payload", cum: 1},
		}
	}
}

// tRow is the row of T under key k with its initial payload: info = grp·10
// keeps the functional dependency grp → info the split assumes.
func (s *spec) tRow(k int64) value.Tuple {
	grp := k % int64(s.groups)
	return value.Tuple{value.Int(k), value.Int(0), value.Int(grp), value.Int(grp * 10)}
}

// jvOf is R's join value: it ranges over twice S's key space, so half of R's
// rows have no match in S.
func (s *spec) jvOf(id int64) int64 { return id % int64(2*s.sRows) }

func intCol(name string, nullable bool) catalog.Column {
	return catalog.Column{Name: name, Type: value.KindInt, Nullable: nullable}
}

func createTable(db *engine.DB, name string, cols []catalog.Column, pk string) error {
	def, err := catalog.NewTableDef(name, cols, []string{pk})
	if err != nil {
		return err
	}
	return db.CreateTable(def)
}

// fill bulk-loads rows 0..n-1 below the transaction layer (LSN 0 marks
// pre-history rows): set-up, not workload.
func fill(db *engine.DB, name string, n int, mk func(int64) value.Tuple) error {
	tbl := db.Table(name)
	if tbl == nil {
		return fmt.Errorf("no table %s", name)
	}
	for i := int64(0); i < int64(n); i++ {
		if err := tbl.Insert(mk(i), 0); err != nil {
			return fmt.Errorf("load %s: %w", name, err)
		}
	}
	return nil
}

// load creates and fills the workload's tables.
func (s *spec) load(db *engine.DB) error {
	dummyRow := func(i int64) value.Tuple { return value.Tuple{value.Int(i), value.Int(0)} }
	if s.kind == kindFOJ {
		if err := createTable(db, "R", []catalog.Column{intCol("id", false), intCol("payload", true), intCol("jv", true)}, "id"); err != nil {
			return err
		}
		if err := createTable(db, "S", []catalog.Column{intCol("jv", false), intCol("info", true)}, "jv"); err != nil {
			return err
		}
		if err := fill(db, "R", s.rows, func(i int64) value.Tuple {
			return value.Tuple{value.Int(i), value.Int(0), value.Int(s.jvOf(i))}
		}); err != nil {
			return err
		}
		if err := fill(db, "S", s.sRows, dummyRow); err != nil {
			return err
		}
	} else {
		if err := createTable(db, "T", []catalog.Column{intCol("id", false), intCol("payload", true), intCol("grp", false), intCol("info", true)}, "id"); err != nil {
			return err
		}
		if err := fill(db, "T", s.rows, s.tRow); err != nil {
			return err
		}
	}
	if err := createTable(db, "dummy", []catalog.Column{intCol("id", false), intCol("payload", true)}, "id"); err != nil {
		return err
	}
	return fill(db, "dummy", s.rows, dummyRow)
}

// transformation builds the workload's schema change with the workload's
// priority and the benchmark's strategy; cfg carries the sink of a traced run
// and nothing else, so every other knob is at its default.
func (s *spec) transformation(db *engine.DB, cfg core.Config) (*core.Transformation, error) {
	cfg.Priority, cfg.Strategy = s.priority, syncStrategy
	switch s.kind {
	case kindSplit:
		return core.NewSplit(db, core.SplitSpec{
			Source: "T", Left: "T_base", Right: "T_grp",
			SplitOn: []string{"grp"}, RightOnly: []string{"info"},
		}, cfg)
	case kindFOJ:
		return core.NewFullOuterJoin(db, core.JoinSpec{
			Target: "RS", Left: "R", Right: "S", On: [][2]string{{"jv", "jv"}},
		}, cfg)
	}
	return nil, nil
}
