package core

import (
	"runtime"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/value"
)

// benchPopulate times only the operator's Populate (prepare and the source
// load are set-up) and reports it per populated row, so a run at another
// table size compares. Both sources have the benchmark's shape: all-int
// columns, ten rows per split value, half of R without a join match.
func benchPopulate(b *testing.B, build func(db *engine.DB) (*Transformation, error)) {
	var rows, allocs int64
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		tr, err := build(engine.New(engine.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.op.Prepare(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		n, err := tr.op.Populate(func(int) {})
		busy += time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		rows += n
		allocs += int64(after.Mallocs - before.Mallocs)
	}
	b.ReportMetric(float64(rows)/busy.Seconds(), "rows/s")
	b.ReportMetric(float64(allocs)/float64(rows), "allocs/row")
}

func benchTable(b *testing.B, db *engine.DB, name string, cols []string, n int, mk func(i int64) value.Tuple) {
	b.Helper()
	defCols := make([]catalog.Column, len(cols))
	for i, c := range cols {
		defCols[i] = catalog.Column{Name: c, Type: value.KindInt, Nullable: i > 0}
	}
	def, err := catalog.NewTableDef(name, defCols, cols[:1])
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(def); err != nil {
		b.Fatal(err)
	}
	tbl := db.Table(name)
	for i := int64(0); i < int64(n); i++ {
		if err := tbl.Insert(mk(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopulateSplit(b *testing.B) {
	const rows, groups = 100_000, 10_000
	benchPopulate(b, func(db *engine.DB) (*Transformation, error) {
		benchTable(b, db, "T", []string{"id", "payload", "grp", "info"}, rows, func(i int64) value.Tuple {
			g := i % groups
			return value.Tuple{value.Int(i), value.Int(0), value.Int(g), value.Int(g * 10)}
		})
		return NewSplit(db, SplitSpec{Source: "T", Left: "T_base", Right: "T_grp",
			SplitOn: []string{"grp"}, RightOnly: []string{"info"}}, Config{})
	})
}

func BenchmarkPopulateFOJ(b *testing.B) {
	const rRows, sRows = 100_000, 40_000
	benchPopulate(b, func(db *engine.DB) (*Transformation, error) {
		benchTable(b, db, "R", []string{"id", "payload", "jv"}, rRows, func(i int64) value.Tuple {
			return value.Tuple{value.Int(i), value.Int(0), value.Int(i % (2 * sRows))}
		})
		benchTable(b, db, "S", []string{"jv", "info"}, sRows, func(i int64) value.Tuple {
			return value.Tuple{value.Int(i), value.Int(0)}
		})
		return NewFullOuterJoin(db, JoinSpec{Target: "RS", Left: "R", Right: "S",
			On: [][2]string{{"jv", "jv"}}}, Config{})
	})
}
