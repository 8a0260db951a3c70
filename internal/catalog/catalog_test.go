package catalog

import (
	"strings"
	"testing"

	"nbschema/internal/value"
)

func sampleDef(t *testing.T) *TableDef {
	t.Helper()
	d, err := NewTableDef("customer", []Column{
		{Name: "id", Type: value.KindInt},
		{Name: "name", Type: value.KindString, Nullable: true},
		{Name: "zip", Type: value.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatalf("NewTableDef: %v", err)
	}
	return d
}

func TestNewTableDefValidation(t *testing.T) {
	cols := []Column{{Name: "a", Type: value.KindInt}}
	cases := []struct {
		name    string
		tbl     string
		cols    []Column
		pk      []string
		wantErr string
	}{
		{"empty name", "", cols, []string{"a"}, "empty table name"},
		{"no columns", "t", nil, []string{"a"}, "no columns"},
		{"empty column name", "t", []Column{{Name: ""}}, []string{"a"}, "empty name"},
		{"dup column", "t", []Column{{Name: "a"}, {Name: "a"}}, []string{"a"}, "duplicate column"},
		{"no pk", "t", cols, nil, "no primary key"},
		{"bad pk column", "t", cols, []string{"zz"}, "no column zz"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewTableDef(c.tbl, c.cols, c.pk)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestColIndexAndNames(t *testing.T) {
	d := sampleDef(t)
	if d.ColIndex("name") != 1 {
		t.Errorf("ColIndex(name) = %d", d.ColIndex("name"))
	}
	if d.ColIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
	idx, err := d.ColIndexes([]string{"zip", "id"})
	if err != nil || idx[0] != 2 || idx[1] != 0 {
		t.Errorf("ColIndexes = %v, %v", idx, err)
	}
	if _, err := d.ColIndexes([]string{"nope"}); err == nil {
		t.Error("expected error for unknown column")
	}
	names := d.ColNames([]int{2, 0})
	if names[0] != "zip" || names[1] != "id" {
		t.Errorf("ColNames = %v", names)
	}
}

func TestKeyOf(t *testing.T) {
	d := sampleDef(t)
	row := value.Tuple{value.Int(7), value.Str("x"), value.Int(7050)}
	key := d.KeyOf(row)
	if len(key) != 1 || key[0].AsInt() != 7 {
		t.Errorf("KeyOf = %v", key)
	}
}

func TestValidateRow(t *testing.T) {
	d := sampleDef(t)
	ok := value.Tuple{value.Int(1), value.Str("a"), value.Int(2)}
	if err := d.ValidateRow(ok); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	withNull := value.Tuple{value.Int(1), value.Null(), value.Int(2)}
	if err := d.ValidateRow(withNull); err != nil {
		t.Errorf("nullable null rejected: %v", err)
	}
	cases := []struct {
		name string
		row  value.Tuple
		want string
	}{
		{"arity", value.Tuple{value.Int(1)}, "expects 3 columns"},
		{"type", value.Tuple{value.Str("x"), value.Null(), value.Int(2)}, "expects int"},
		{"null in non-nullable", value.Tuple{value.Null(), value.Null(), value.Int(2)}, "not nullable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := d.ValidateRow(c.row)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestCandidateKeys(t *testing.T) {
	d := sampleDef(t)
	if err := d.AddCandidateKey([]string{"zip", "name"}); err != nil {
		t.Fatalf("AddCandidateKey: %v", err)
	}
	if len(d.CandidateKeys) != 1 || d.CandidateKeys[0][0] != 2 {
		t.Errorf("CandidateKeys = %v", d.CandidateKeys)
	}
	if err := d.AddCandidateKey([]string{"bogus"}); err == nil {
		t.Error("expected error for unknown candidate key column")
	}
}

func TestClone(t *testing.T) {
	d := sampleDef(t)
	if err := d.AddCandidateKey([]string{"zip"}); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	c.Name = "other"
	c.Columns[0].Name = "changed"
	c.CandidateKeys[0][0] = 99
	if d.Name != "customer" || d.Columns[0].Name != "id" || d.CandidateKeys[0][0] != 2 {
		t.Error("Clone must be deep")
	}
	if c.ColIndex("id") != 0 {
		t.Error("clone must keep the name index")
	}
}

func TestCatalogCRUD(t *testing.T) {
	c := New()
	d := sampleDef(t)
	if err := c.Create(d); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Create(d); err == nil {
		t.Error("duplicate Create should fail")
	}
	got, err := c.Get("customer")
	if err != nil || got.Name != "customer" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("Get of missing table should fail")
	}
	if err := c.Drop("customer"); err != nil {
		t.Errorf("Drop: %v", err)
	}
	if err := c.Drop("customer"); err == nil {
		t.Error("double Drop should fail")
	}
}

func TestCatalogRename(t *testing.T) {
	c := New()
	if err := c.Create(sampleDef(t)); err != nil {
		t.Fatal(err)
	}
	other, _ := NewTableDef("other", []Column{{Name: "a", Type: value.KindInt}}, []string{"a"})
	if err := c.Create(other); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("customer", "other"); err == nil {
		t.Error("rename onto existing table should fail")
	}
	if err := c.Rename("ghost", "x"); err == nil {
		t.Error("rename of missing table should fail")
	}
	if err := c.Rename("customer", "client"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := c.Get("customer"); err == nil {
		t.Error("old name should be gone")
	}
	d, err := c.Get("client")
	if err != nil || d.Name != "client" {
		t.Errorf("renamed def = %v, %v", d, err)
	}
}

func TestCatalogStateAndList(t *testing.T) {
	c := New()
	if err := c.Create(sampleDef(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(StateChange{"customer", StateHidden, 0}); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	d, _ := c.Get("customer")
	if d.State != StateHidden {
		t.Errorf("state = %v", d.State)
	}
	// The drop gate travels with the dropping state and is cleared with it.
	if err := c.SetState(StateChange{"customer", StateDropping, 7}); err != nil {
		t.Fatal(err)
	}
	if s, at, err := c.StateOf("customer"); s != StateDropping || at != 7 || err != nil {
		t.Errorf("StateOf = %v, %d, %v; want dropping, 7", s, at, err)
	}
	if err := c.SetState(StateChange{"customer", StatePublic, 7}); err != nil {
		t.Fatal(err)
	}
	if s, at, _ := c.StateOf("customer"); s != StatePublic || at != 0 {
		t.Errorf("StateOf after reopen = %v, %d; want public, 0", s, at)
	}
	if err := c.SetState(StateChange{"ghost", StatePublic, 0}); err == nil {
		t.Error("SetState on missing table should fail")
	}
	other, _ := NewTableDef("aaa", []Column{{Name: "a", Type: value.KindInt}}, []string{"a"})
	if err := c.Create(other); err != nil {
		t.Fatal(err)
	}
	names := c.List()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "customer" {
		t.Errorf("List = %v", names)
	}
}

func TestStateString(t *testing.T) {
	if StatePublic.String() != "public" || StateHidden.String() != "hidden" ||
		StateDropping.String() != "dropping" || State(9).String() != "state(9)" {
		t.Error("State.String names wrong")
	}
}

// TestSetStateAllOrNothing: one SetState call changes every named table or,
// when one is missing, none of them.
func TestSetStateAllOrNothing(t *testing.T) {
	c := New()
	if err := c.Create(sampleDef(t)); err != nil {
		t.Fatal(err)
	}
	other, _ := NewTableDef("aaa", []Column{{Name: "a", Type: value.KindInt}}, []string{"a"})
	if err := c.Create(other); err != nil {
		t.Fatal(err)
	}
	if err := c.SetState(StateChange{"customer", StateDropping, 5}, StateChange{"ghost", StatePublic, 0}); err == nil {
		t.Fatal("SetState naming a missing table should fail")
	}
	if s, _, _ := c.StateOf("customer"); s != StatePublic {
		t.Errorf("customer = %v after a failed SetState, want public", s)
	}
	if err := c.SetState(StateChange{"customer", StateDropping, 5}, StateChange{"aaa", StatePublic, 9}); err != nil {
		t.Fatal(err)
	}
	if s, at, _ := c.StateOf("customer"); s != StateDropping || at != 5 {
		t.Errorf("customer = %v, %d; want dropping, 5", s, at)
	}
	if s, at, _ := c.StateOf("aaa"); s != StatePublic || at != 0 {
		t.Errorf("aaa = %v, %d; want public, 0", s, at)
	}
}
