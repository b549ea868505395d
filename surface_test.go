package mistral_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// settableValuesCeiling is the most settable values the module may expose:
// exported fields of struct types named *Options or *Config, plus flags
// defined under cmd/. A change that adds one raises this number on purpose,
// with the second caller that needs a different value as its reason.
const settableValuesCeiling = 191

// flagDefiners are the flag package's functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
}

// TestSettableValuesCeiling holds the module's configuration surface to a
// ceiling, counted over the non-test Go files of this module (bench/ is a
// module of its own and is not counted).
func TestSettableValuesCeiling(t *testing.T) {
	var fields, flags int
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		underCmd := strings.HasPrefix(filepath.ToSlash(path), "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
					return true
				}
				for _, fl := range st.Fields.List {
					if len(fl.Names) == 0 { // embedded: named by its type
						if embeddedExported(fl.Type) {
							fields++
						}
						continue
					}
					for _, id := range fl.Names {
						if id.IsExported() {
							fields++
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !underCmd {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" && flagDefiners[sel.Sel.Name] {
					flags++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := fields + flags
	t.Logf("settable values: %d (%d option/config fields, %d flags); ceiling %d", total, fields, flags, settableValuesCeiling)
	if total > settableValuesCeiling {
		t.Errorf("%d settable values exceed the ceiling of %d: make a value with one caller a constant", total, settableValuesCeiling)
	}
}

// embeddedExported reports whether an embedded field's type name is exported.
func embeddedExported(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.StarExpr:
		return embeddedExported(x.X)
	case *ast.SelectorExpr:
		return x.Sel.IsExported()
	case *ast.Ident:
		return x.IsExported()
	}
	return false
}
