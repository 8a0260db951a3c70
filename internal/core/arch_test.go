package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestLifecycleOwnsTableState pins lifecycle.go as the one owner of a
// transformation's state: outside the catalog package no other program file
// sets a table state or names a lifecycle record type, no other core file
// drops a table, and engine does not import core.
func TestLifecycleOwnsTableState(t *testing.T) {
	const lifecycle = "internal/core/lifecycle.go"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(rel, "internal/engine/") {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"nbschema/internal/core"` {
					t.Errorf("%s: engine imports core", rel)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at := fset.Position(sel.Pos())
			name := sel.Sel.Name
			switch {
			case rel == lifecycle || strings.HasPrefix(rel, "internal/catalog/"):
			case name == "SetState":
				t.Errorf("%s:%d: sets a table state outside lifecycle.go", rel, at.Line)
			case strings.HasPrefix(name, "TypeTransform") && !strings.HasPrefix(rel, "internal/wal/"):
				t.Errorf("%s:%d: names lifecycle record %s outside lifecycle.go", rel, at.Line, name)
			case name == "DropTable" && strings.HasPrefix(rel, "internal/core/"):
				t.Errorf("%s:%d: drops a table outside lifecycle.go", rel, at.Line)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
