package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nbschema/internal/catalog"
	"nbschema/internal/engine"
	"nbschema/internal/value"
)

// Many-to-many example: students R(sid, name, course) and teachers
// S(tid, course, tname) joined on course. Several students share a course
// and several teachers teach the same course.

func newM2MDB(t *testing.T) *engine.DB {
	return newM2MDBOpts(t, engine.Options{LockTimeout: 150 * time.Millisecond})
}

func newM2MDBOpts(t *testing.T, o engine.Options) *engine.DB {
	t.Helper()
	db := engine.New(o)
	r, err := catalog.NewTableDef("R", []catalog.Column{
		{Name: "sid", Type: value.KindInt},
		{Name: "sname", Type: value.KindString, Nullable: true},
		{Name: "course", Type: value.KindInt, Nullable: true},
	}, []string{"sid"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := catalog.NewTableDef("S", []catalog.Column{
		{Name: "tid", Type: value.KindInt},
		{Name: "course", Type: value.KindInt, Nullable: true},
		{Name: "tname", Type: value.KindString, Nullable: true},
	}, []string{"tid"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	return db
}

func student(sid int64, name string, course int64) value.Tuple {
	return value.Tuple{value.Int(sid), value.Str(name), value.Int(course)}
}

func teacher(tid, course int64, name string) value.Tuple {
	return value.Tuple{value.Int(tid), value.Int(course), value.Str(name)}
}

func seedM2M(t *testing.T, db *engine.DB) {
	t.Helper()
	mustExec(t, db, func(tx *engine.Txn) error {
		for _, r := range []value.Tuple{
			student(1, "ann", 100), student(2, "bob", 100), student(3, "cal", 200), student(4, "dag", 300),
		} {
			if err := tx.Insert("R", r); err != nil {
				return err
			}
		}
		for _, s := range []value.Tuple{
			teacher(10, 100, "smith"), teacher(11, 100, "jones"), teacher(12, 200, "berg"), teacher(13, 400, "moe"),
		} {
			if err := tx.Insert("S", s); err != nil {
				return err
			}
		}
		return nil
	})
}

func newM2MOp(t *testing.T, db *engine.DB, cfg Config) (*Transformation, *fojOp) {
	t.Helper()
	tr, err := NewFullOuterJoin(db, JoinSpec{
		Target: "T", Left: "R", Right: "S",
		On:         [][2]string{{"course", "course"}},
		ManyToMany: true,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.op.(*fojOp)
}

func preparedM2M(t *testing.T, db *engine.DB, cfg Config) (*Transformation, *fojOp) {
	t.Helper()
	tr, op := newM2MOp(t, db, cfg)
	if err := op.Prepare(); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	tr.cursor = db.Log().End() + 1
	tr.mu.Unlock()
	if _, err := op.Populate(func(int) {}); err != nil {
		t.Fatal(err)
	}
	return tr, op
}

func TestM2MInitialImage(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	_, op := preparedM2M(t, db, Config{})
	// course 100: 2 students × 2 teachers = 4 rows; course 200: 1×1;
	// course 300: student only (1); course 400: teacher only (1).
	if op.tTbl.Len() != 7 {
		t.Fatalf("T has %d rows, want 7", op.tTbl.Len())
	}
	assertConverged(t, op)
}

func TestM2MInsertR(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// A student joining course 100 pairs with both teachers.
		if err := tx.Insert("R", student(5, "eva", 100)); err != nil {
			return err
		}
		// A student joining course 400 consumes the teacher-only row.
		return tx.Insert("R", student(6, "fin", 400))
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	if rows := op.lookup(IndexRKey, value.Tuple{value.Int(5)}); len(rows) != 2 {
		t.Errorf("eva pairs = %d, want 2", len(rows))
	}
}

func TestM2MInsertS(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// A third teacher of course 100 pairs with both students.
		if err := tx.Insert("S", teacher(14, 100, "hansen")); err != nil {
			return err
		}
		// A teacher of course 300 consumes the student-only row.
		return tx.Insert("S", teacher(15, 300, "lie"))
	})
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestM2MDeleteR(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// Deleting cal (sole student of course 200) must preserve teacher
		// berg as a teacher-only row.
		return tx.Delete("R", value.Tuple{value.Int(3)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestM2MDeleteS(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// Deleting smith leaves jones paired with both students.
		if err := tx.Delete("S", value.Tuple{value.Int(10)}); err != nil {
			return err
		}
		// Deleting berg (sole teacher of 200) leaves cal student-only.
		return tx.Delete("S", value.Tuple{value.Int(12)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestM2MUpdateRJoin(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// ann moves from course 100 (2 teachers) to 200 (1 teacher).
		return tx.Update("R", value.Tuple{value.Int(1)}, []string{"course"}, value.Tuple{value.Int(200)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
	if rows := op.lookup(IndexRKey, value.Tuple{value.Int(1)}); len(rows) != 1 {
		t.Errorf("ann pairs = %d, want 1", len(rows))
	}
}

func TestM2MUpdateSJoin(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// smith switches from course 100 to 300 (dag's course).
		return tx.Update("S", value.Tuple{value.Int(10)}, []string{"course"}, value.Tuple{value.Int(300)})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestM2MPlainUpdates(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := preparedM2M(t, db, Config{})
	mustExec(t, db, func(tx *engine.Txn) error {
		// smith's rename must fan out to both of smith's T rows.
		if err := tx.Update("S", value.Tuple{value.Int(10)}, []string{"tname"}, value.Tuple{value.Str("SMITH")}); err != nil {
			return err
		}
		// ann's rename must fan out to both of ann's T rows.
		return tx.Update("R", value.Tuple{value.Int(1)}, []string{"sname"}, value.Tuple{value.Str("ANN")})
	})
	propagateAll(t, tr)
	assertConverged(t, op)
}

func TestM2MConvergenceUnderLoad(t *testing.T) {
	db := newM2MDB(t)
	seedM2M(t, db)
	tr, op := newM2MOp(t, db, Config{KeepSources: true, MaxIterations: 500})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(time.Duration(100+rng.Intn(100)) * time.Microsecond)
				tx := db.Begin()
				var err error
				switch rng.Intn(7) {
				case 0:
					err = tx.Insert("R", student(rng.Int63n(100), randName(rng), rng.Int63n(8)*100))
				case 1:
					err = tx.Insert("S", teacher(rng.Int63n(50), rng.Int63n(8)*100, randName(rng)))
				case 2:
					err = tx.Delete("R", value.Tuple{value.Int(rng.Int63n(100))})
				case 3:
					err = tx.Delete("S", value.Tuple{value.Int(rng.Int63n(50))})
				case 4:
					err = tx.Update("R", value.Tuple{value.Int(rng.Int63n(100))},
						[]string{"course"}, value.Tuple{value.Int(rng.Int63n(8) * 100)})
				case 5:
					err = tx.Update("S", value.Tuple{value.Int(rng.Int63n(50))},
						[]string{"course"}, value.Tuple{value.Int(rng.Int63n(8) * 100)})
				case 6:
					err = tx.Update("S", value.Tuple{value.Int(rng.Int63n(50))},
						[]string{"tname"}, value.Tuple{value.Str(randName(rng))})
				}
				if err != nil {
					if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
						t.Errorf("abort: %v", aerr)
						return
					}
					continue
				}
				if cerr := tx.Commit(); cerr != nil {
					if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, engine.ErrTxnDone) {
						t.Errorf("abort after commit failure: %v", aerr)
						return
					}
				}
			}
		}(int64(w))
	}
	time.Sleep(20 * time.Millisecond)
	err := tr.Run(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertConverged(t, op)
}
