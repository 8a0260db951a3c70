package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"nbschema/internal/value"
)

// Index is a hash index over a subset of a table's columns. Unique indexes
// reject duplicate keys; non-unique indexes map a key to its posting, the
// primary keys of the rows carrying it. Each index carries its own mutex —
// the serialization point for uniqueness checks now that heap partitions
// latch independently. It is always acquired after the owning partition
// latch(es); a writer that needs several index mutexes at once (a batch
// insert) takes them in the table's index order.
type Index struct {
	name   string
	cols   []int
	unique bool

	mu      sync.Mutex
	entries map[string]posting
	// kbuf is the scratch buffer index keys are derived into, so lookups and
	// maintenance never materialize a key string except to install a new
	// entry. Only touched with mu held.
	kbuf []byte
}

// posting is the primary keys stored under one index key. An entry exists
// only while it holds at least one key: the first sits inline, so the common
// one-row posting costs no allocation beyond the map slot, and the rest
// follow in a slice in no particular order. Membership tests and removals
// scan the slice, which suits the short postings of key-like and
// foreign-key indexes this engine builds. key is the entry's own map key:
// storing a changed posting back under it, instead of under a conversion of
// the scratch buffer, allocates nothing.
type posting struct {
	key  string
	one  string
	more []string
}

// CreateIndex adds an index over the given column positions to the table and
// backfills it from existing rows. The paper's preparation step creates
// target-table indexes before population so they are up to date when the
// transformation completes (§3.1). The backfill holds every partition latch
// (taken in ascending order) so the index is exact when published.
func (t *Table) CreateIndex(name string, cols []int, unique bool) (*Index, error) {
	for _, c := range cols {
		if c < 0 || c >= len(t.def.Columns) {
			return nil, fmt.Errorf("storage: index %s on table %s: column %d out of range", name, t.def.Name, c)
		}
	}
	ix := &Index{
		name:    name,
		cols:    append([]int(nil), cols...),
		unique:  unique,
		entries: make(map[string]posting),
	}
	t.ixMu.Lock()
	defer t.ixMu.Unlock()
	at := sort.Search(len(t.indexes), func(i int) bool { return t.indexes[i].name >= name })
	if at < len(t.indexes) && t.indexes[at].name == name {
		return nil, fmt.Errorf("storage: table %s already has index %s", t.def.Name, name)
	}
	for _, p := range t.parts {
		p.mu.RLock()
	}
	defer func() {
		for _, p := range t.parts {
			p.mu.RUnlock()
		}
	}()
	for _, p := range t.parts {
		for pk, rec := range p.rows {
			if err := ix.insert(rec.Row, pk); err != nil {
				return nil, err
			}
		}
	}
	t.indexes = slices.Insert(t.indexes, at, ix)
	return ix, nil
}

// Index returns a previously created index by name, or nil.
func (t *Table) Index(name string) *Index {
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	for _, ix := range t.indexes {
		if ix.name == name {
			return ix
		}
	}
	return nil
}

// covers reports whether any of the index's columns is among cols.
func (ix *Index) covers(cols []int) bool {
	for _, c := range ix.cols {
		for _, u := range cols {
			if c == u {
				return true
			}
		}
	}
	return false
}

// insert adds (row's index key → pk), enforcing uniqueness. pk must be a
// durable string (the partition map key) not yet in the posting. Call with
// ix.mu held.
func (ix *Index) insert(row value.Tuple, pk string) error {
	ix.kbuf = row.AppendEncodeProject(ix.kbuf[:0], ix.cols)
	post, ok := ix.entries[string(ix.kbuf)]
	switch {
	case !ok:
		key := string(ix.kbuf)
		ix.entries[key] = posting{key: key, one: pk}
		return nil
	case ix.unique:
		if post.one == pk {
			return nil
		}
		return fmt.Errorf("storage: unique index %s violated by key %s", ix.name, row.Project(ix.cols))
	}
	post.more = append(post.more, pk)
	ix.entries[post.key] = post
	return nil
}

// remove drops (row's index key → pk); an absent pair is a no-op. Call with
// ix.mu held.
func (ix *Index) remove(row value.Tuple, pk string) {
	ix.kbuf = row.AppendEncodeProject(ix.kbuf[:0], ix.cols)
	post, ok := ix.entries[string(ix.kbuf)]
	if !ok {
		return
	}
	last := len(post.more) - 1
	if post.one == pk {
		if last < 0 {
			delete(ix.entries, post.key)
			return
		}
		post.one = post.more[last]
	} else {
		at := -1
		for i, m := range post.more {
			if m == pk {
				at = i
				break
			}
		}
		if at < 0 {
			return
		}
		post.more[at] = post.more[last]
	}
	post.more[last] = "" // do not pin the dropped key
	post.more = post.more[:last]
	ix.entries[post.key] = post
}

// insertOne and removeOne are insert and remove for writers that maintain
// one row and take each index mutex in turn.
func (ix *Index) insertOne(row value.Tuple, pk string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.insert(row, pk)
}

func (ix *Index) removeOne(row value.Tuple, pk string) {
	ix.mu.Lock()
	ix.remove(row, pk)
	ix.mu.Unlock()
}

// reserve presizes the index for n more keys.
func (ix *Index) reserve(n int) {
	ix.mu.Lock()
	ix.entries = grownMap(ix.entries, n)
	ix.mu.Unlock()
}

// LookupIndex returns the rows whose index key equals key — shared read-only
// tuples — together with their primary keys, in primary-key order. The index
// is read under its own mutex and the rows under their partition latches;
// between the two, a concurrent writer may move a row, so the result is fuzzy
// in exactly the way the framework's fuzzy reads are (missing rows are
// skipped).
func (t *Table) LookupIndex(name string, key value.Tuple) ([]value.Tuple, []string, error) {
	ix := t.Index(name)
	if ix == nil {
		return nil, nil, fmt.Errorf("storage: table %s has no index %s", t.def.Name, name)
	}
	ix.mu.Lock()
	ix.kbuf = key.AppendEncode(ix.kbuf[:0])
	post, ok := ix.entries[string(ix.kbuf)]
	if !ok {
		ix.mu.Unlock()
		return nil, nil, nil
	}
	pks := make([]string, 1+len(post.more))
	pks[0] = post.one
	copy(pks[1:], post.more)
	ix.mu.Unlock()
	if len(pks) > 1 {
		sort.Strings(pks)
	}
	rows := make([]value.Tuple, 0, len(pks))
	for _, pk := range pks {
		p := t.partOf(pk)
		p.mu.RLock()
		if rec, ok := p.rows[pk]; ok {
			pks[len(rows)] = pk
			rows = append(rows, rec.Row)
		}
		p.mu.RUnlock()
	}
	return rows, pks[:len(rows)], nil
}

// IndexCount returns the number of distinct keys in the named index (for
// tests and stats); -1 if the index does not exist.
func (t *Table) IndexCount(name string) int {
	ix := t.Index(name)
	if ix == nil {
		return -1
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.entries)
}

// CheckUniqueEnc reports whether row would violate any unique index of the
// table, ignoring the record stored under the encoded primary key exclude
// (the row's own previous version during an update). The engine calls this
// before logging so that a logged operation can never fail to apply.
func (t *Table) CheckUniqueEnc(row value.Tuple, exclude []byte) error {
	t.ixMu.RLock()
	defer t.ixMu.RUnlock()
	for _, ix := range t.indexes {
		if !ix.unique {
			continue
		}
		ix.mu.Lock()
		ix.kbuf = row.AppendEncodeProject(ix.kbuf[:0], ix.cols)
		post, taken := ix.entries[string(ix.kbuf)]
		ix.mu.Unlock()
		if taken && post.one != string(exclude) {
			return fmt.Errorf("storage: unique index %s violated by key %s", ix.name, row.Project(ix.cols))
		}
	}
	return nil
}
