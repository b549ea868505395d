package mistral_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references TestDocsResolve holds to
// the code. bench/README.md is left out: bench/ is a module of its own,
// changed only together with the benchmark, so its README may name what its
// own code names.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// fenced matches a fenced code block: commands and sample output, or a
	// go block, which is parsed instead of scanned for spans.
	fenced = regexp.MustCompile("(?s)```.*?```")
	// codeSpan matches an inline code span on one line.
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// goRef matches a dotted Go reference, optionally called:
	// pkg.Ident, Type.Member, pkg.Type.Member, Recipe.Build(run).
	goRef = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	// repoPath matches a path into the checkout, optionally with a line
	// suffix (file.go:12 or file.go:12–34).
	repoPath = regexp.MustCompile(`^((?:internal|cmd|examples|scripts|bench|\.github)/[\w./*-]*?)(?::\d+(?:[–-]\d+)?)?$`)
)

// moduleIndex is what this module declares, test files included: per
// package name its top-level identifiers and, since a document may write
// pkg.Method for pkg.Type.Method, its types' fields and methods; and per
// type name (in any package) its fields and methods.
type moduleIndex struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
}

// indexModule parses every Go file of this module. bench/ is a module of
// its own and is not indexed.
func indexModule(t *testing.T) moduleIndex {
	t.Helper()
	idx := moduleIndex{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if idx.pkgs[pkg] == nil {
			idx.pkgs[pkg] = map[string]bool{}
		}
		top := idx.pkgs[pkg]
		member := func(typ, name string) {
			if idx.members[typ] == nil {
				idx.members[typ] = map[string]bool{}
			}
			idx.members[typ][name] = true
			top[name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top[decl.Name.Name] = true
				} else {
					member(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						member(spec.Name.Name, "") // a type with no members is still a type
						top[spec.Name.Name] = true
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							for _, fl := range typ.Fields.List {
								for _, id := range fl.Names {
									member(spec.Name.Name, id.Name)
								}
								if len(fl.Names) == 0 {
									member(spec.Name.Name, receiverType(fl.Type))
								}
							}
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, id := range m.Names {
									member(spec.Name.Name, id.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							top[id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// receiverType names the type of a receiver or embedded field: T, *T,
// T[P], pkg.T.
func receiverType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// benchMetrics are the metric names BENCHMARK.json declares: they read like
// pkg.ident (core.expansions) but name a measurement, not a declaration.
func benchMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// resolve reports why a code span does not name something in this module,
// or "" when it does or is not a reference to the module. A reference is a
// dotted Go name whose first element is a package or a type of this module,
// or a path under one of the checkout's source directories.
func (idx moduleIndex) resolve(span string, metrics map[string]bool) string {
	if m := repoPath.FindStringSubmatch(span); m != nil {
		matches, err := filepath.Glob(strings.TrimSuffix(m[1], "/"))
		if err != nil || len(matches) == 0 {
			return "no such path in the checkout"
		}
		return ""
	}
	m := goRef.FindStringSubmatch(span)
	if m == nil || metrics[span] {
		return ""
	}
	first, second, third := m[1], m[2], m[3]
	if top, ok := idx.pkgs[first]; ok && first != "main" {
		switch {
		case !top[second]:
			return "package " + first + " declares no " + second
		case third != "" && !idx.members[second][third]:
			return first + "." + second + " has no field or method " + third
		}
		return ""
	}
	if members, ok := idx.members[first]; ok && !members[second] {
		return "type " + first + " has no field or method " + second
	}
	return ""
}

// checkGoBlock parses a fenced go block, as a file body or else as
// statements, and reports each pkg.Ident whose package is this module's
// and declares no such identifier.
func (idx moduleIndex) checkGoBlock(block string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", "package p\n"+block, parser.SkipObjectResolution)
	if err != nil {
		if f, err = parser.ParseFile(fset, "", "package p\nfunc _() {\n"+block+"\n}", parser.SkipObjectResolution); err != nil {
			return []string{"does not parse as Go: " + err.Error()}
		}
	}
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name != "main" && idx.pkgs[pkg.Name] != nil && !idx.pkgs[pkg.Name][sel.Sel.Name] {
			bad = append(bad, "package "+pkg.Name+" declares no "+sel.Sel.Name)
		}
		return true
	})
	return bad
}

// TestDocsResolve holds the documents' code references to the code: every
// backticked pkg.Ident, Type.Member or repository path in README, DESIGN and
// EXPERIMENTS, and every pkg.Ident in their go blocks, must name something
// this module declares (test files included) or a path that exists, so a
// rename or deletion cannot leave a document pointing at nothing.
func TestDocsResolve(t *testing.T) {
	idx := indexModule(t)
	metrics := benchMetrics(t)
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fenced.ReplaceAllStringFunc(string(raw), func(block string) string {
			if body, ok := strings.CutPrefix(block, "```go\n"); ok {
				for _, why := range idx.checkGoBlock(strings.TrimSuffix(body, "```")) {
					t.Errorf("%s: go block %q: %s", doc, strings.SplitN(body, "\n", 2)[0], why)
				}
			}
			return strings.Repeat("\n", strings.Count(block, "\n")) // keep line numbers
		})
		for n, line := range strings.Split(text, "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if why := idx.resolve(m[1], metrics); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, n+1, m[1], why)
				}
			}
		}
	}
}
