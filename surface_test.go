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
// exported fields of struct types named *Options or *Config and of the
// experiments Recipe, plus every flag the module defines, through the flag
// package or a *flag.FlagSet. A change that adds one raises this number on
// purpose, with the second caller that needs a different value as its
// reason.
const settableValuesCeiling = 126

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
// module of its own and is not counted). A flag counts once where it is
// defined, however many binaries register it.
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
		flagSets := flagSetNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || name == "Recipe") {
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
				if !ok || !flagDefiners[sel.Sel.Name] {
					return true
				}
				switch x := sel.X.(type) {
				case *ast.Ident: // flag.String(...) or fs.String(...)
					if x.Name == "flag" || flagSets[x.Name] {
						flags++
					}
				case *ast.SelectorExpr: // flag.CommandLine.String(...)
					if isFlagSel(x, "CommandLine") {
						flags++
					}
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

// flagSetNames collects the identifiers a file declares as a
// *flag.FlagSet: parameters, results and variables of that type, and names
// assigned the result of flag.NewFlagSet.
func flagSetNames(f *ast.File) map[string]bool {
	names := map[string]bool{}
	isFlagSet := func(x ast.Expr) bool {
		star, ok := x.(*ast.StarExpr)
		if !ok {
			return false
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		return ok && isFlagSel(sel, "FlagSet")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if isFlagSet(n.Type) {
				for _, id := range n.Names {
					names[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && isFlagSet(n.Type) {
				for _, id := range n.Names {
					names[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isFlagSel(sel, "NewFlagSet") {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return names
}

// isFlagSel reports whether sel is flag.<name>.
func isFlagSel(sel *ast.SelectorExpr, name string) bool {
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "flag" && sel.Sel.Name == name
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
