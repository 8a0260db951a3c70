// Package catalog holds the schema: table definitions with columns, primary
// and candidate keys, and the table lifecycle state used during
// transformations (hidden targets, dropping sources).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"nbschema/internal/value"
	"nbschema/internal/wal"
)

// ErrNotFound reports a reference to a table that does not exist (possibly
// because a schema transformation dropped it).
var ErrNotFound = errors.New("catalog: no such table")

// Column describes one attribute of a table.
type Column struct {
	Name     string
	Type     value.Kind
	Nullable bool
}

// State is the lifecycle state of a table.
type State uint8

const (
	// StatePublic is a normal, user-visible table.
	StatePublic State = iota
	// StateHidden marks a transformation target that user transactions may
	// not access yet.
	StateHidden
	// StateDropping marks a source table past synchronization: no new
	// transactions may access it, but transactions that still hold locks on
	// it are allowed to finish (non-blocking commit) or roll back
	// (non-blocking abort).
	StateDropping
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StatePublic:
		return "public"
	case StateHidden:
		return "hidden"
	case StateDropping:
		return "dropping"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// TableDef is the schema of one table. PrimaryKey lists column positions;
// CandidateKeys lists further unique keys (each a list of column positions).
// TableDef values are immutable once registered in a Catalog.
type TableDef struct {
	Name          string
	Columns       []Column
	PrimaryKey    []int
	CandidateKeys [][]int
	State         State

	// dropAt is the switchover LSN of StateDropping: transactions begun at
	// or after it are denied. It is written and read only together with
	// State, under the catalog lock (SetState, StateOf).
	dropAt wal.LSN
	byName map[string]int
}

// NewTableDef builds and validates a table definition. The primary key is
// given by column names.
func NewTableDef(name string, cols []Column, pk []string) (*TableDef, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no columns", name)
	}
	d := &TableDef{
		Name:    name,
		Columns: append([]Column(nil), cols...),
		byName:  make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("catalog: table %s column %d has empty name", name, i)
		}
		if _, dup := d.byName[c.Name]; dup {
			return nil, fmt.Errorf("catalog: table %s has duplicate column %s", name, c.Name)
		}
		d.byName[c.Name] = i
	}
	if len(pk) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no primary key", name)
	}
	idx, err := d.ColIndexes(pk)
	if err != nil {
		return nil, err
	}
	d.PrimaryKey = idx
	return d, nil
}

// ColIndex returns the position of a named column, or -1 if absent.
func (d *TableDef) ColIndex(name string) int {
	if i, ok := d.byName[name]; ok {
		return i
	}
	return -1
}

// ColIndexes resolves a list of column names to positions.
func (d *TableDef) ColIndexes(names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := d.ColIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("catalog: table %s has no column %s", d.Name, n)
		}
		idx[i] = j
	}
	return idx, nil
}

// ColNames returns the names of the given column positions.
func (d *TableDef) ColNames(cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = d.Columns[c].Name
	}
	return out
}

// AddCandidateKey registers an additional unique key by column names.
func (d *TableDef) AddCandidateKey(names []string) error {
	idx, err := d.ColIndexes(names)
	if err != nil {
		return err
	}
	d.CandidateKeys = append(d.CandidateKeys, idx)
	return nil
}

// KeyOf projects the primary-key columns out of a full row.
func (d *TableDef) KeyOf(row value.Tuple) value.Tuple {
	return row.Project(d.PrimaryKey)
}

// ValidateRow checks arity, types, and nullability of a row against the
// definition. NULL is accepted in nullable columns regardless of type.
func (d *TableDef) ValidateRow(row value.Tuple) error {
	if len(row) != len(d.Columns) {
		return fmt.Errorf("catalog: table %s expects %d columns, got %d", d.Name, len(d.Columns), len(row))
	}
	for i, v := range row {
		c := d.Columns[i]
		if v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("catalog: table %s column %s is not nullable", d.Name, c.Name)
			}
			continue
		}
		if v.Kind() != c.Type {
			return fmt.Errorf("catalog: table %s column %s expects %v, got %v", d.Name, c.Name, c.Type, v.Kind())
		}
	}
	return nil
}

// Clone returns a deep copy of the definition (used by catalog rename).
func (d *TableDef) Clone() *TableDef {
	c := &TableDef{
		Name:       d.Name,
		Columns:    append([]Column(nil), d.Columns...),
		PrimaryKey: append([]int(nil), d.PrimaryKey...),
		State:      d.State,
		dropAt:     d.dropAt,
		byName:     make(map[string]int, len(d.byName)),
	}
	for _, k := range d.CandidateKeys {
		c.CandidateKeys = append(c.CandidateKeys, append([]int(nil), k...))
	}
	for n, i := range d.byName {
		c.byName[n] = i
	}
	return c
}

// Catalog is the thread-safe registry of table definitions.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableDef
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*TableDef)}
}

// Create registers a new table definition.
func (c *Catalog) Create(d *TableDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[d.Name]; exists {
		return fmt.Errorf("catalog: table %s already exists", d.Name)
	}
	c.tables[d.Name] = d
	return nil
}

// Get returns the definition of a table, or an error if it does not exist.
func (c *Catalog) Get(name string) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return d, nil
}

// Drop removes a table definition.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(c.tables, name)
	return nil
}

// Rename atomically renames a table. The old definition is replaced by a
// clone carrying the new name.
func (c *Catalog) Rename(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.tables[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldName)
	}
	if _, exists := c.tables[newName]; exists {
		return fmt.Errorf("catalog: table %s already exists", newName)
	}
	nd := d.Clone()
	nd.Name = newName
	delete(c.tables, oldName)
	c.tables[newName] = nd
	return nil
}

// StateChange is one table's new lifecycle state. DropAt is the switchover
// LSN of StateDropping (the first begin LSN denied access); it is ignored for
// the other states.
type StateChange struct {
	Name   string
	State  State
	DropAt wal.LSN
}

// SetState applies the changes in one write under the catalog lock: no
// reader sees a table's new state beside a stale gate, nor one table of the
// set switched without the others. If a table does not exist, nothing
// changes.
func (c *Catalog) SetState(changes ...StateChange) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range changes {
		if _, ok := c.tables[ch.Name]; !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, ch.Name)
		}
	}
	for _, ch := range changes {
		d := c.tables[ch.Name]
		d.State, d.dropAt = ch.State, 0
		if ch.State == StateDropping {
			d.dropAt = ch.DropAt
		}
	}
	return nil
}

// StateOf returns the lifecycle state of a table and its drop gate (zero
// unless the state is StateDropping), read together under the catalog lock.
// Concurrent readers must use this instead of TableDef.State: the field is
// written by SetState while user transactions check access.
func (c *Catalog) StateOf(name string) (State, wal.LSN, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.tables[name]
	if !ok {
		return StatePublic, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return d.State, d.dropAt, nil
}

// List returns the sorted names of all tables, including hidden ones.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
