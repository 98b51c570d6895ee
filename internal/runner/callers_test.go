package runner_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMapCallers pins "never nested pools": runner.Map starts a pool of
// simulation workers, and only the two batch entry points may call it.
// Every other fan-out hands its tasks to one of them, so a task running
// inside a pool never opens a second pool. The walk covers the
// module's non-test Go files, skipping the separate perfbench module and
// hidden directories such as its build directory, .bench_build.
func TestMapCallers(t *testing.T) {
	allowed := map[string]bool{
		"mcd.go:RunBatch":                          true,
		"internal/bench/bench.go:Options.mapTasks": true,
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var got []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			switch {
			case rel == ".":
			case rel == "perfbench", strings.HasPrefix(d.Name(), "."), d.Name() == "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, site := range mapSites(f) {
			got = append(got, rel+":"+site)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, site := range got {
		seen[site] = true
		if !allowed[site] {
			t.Errorf("runner.Map referenced in %s: hand the tasks to mcd.RunBatch or bench.Options.mapTasks instead of opening a nested pool", site)
		}
	}
	for site := range allowed {
		if !seen[site] {
			t.Errorf("expected caller %s no longer references runner.Map; update this test", site)
		}
	}
}

// mapSites names the function (Recv.Method for methods) around every
// reference to runner.Map in f, under whatever name f imports the
// runner package.
func mapSites(f *ast.File) []string {
	pkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "mcd/internal/runner" {
			pkg = "runner"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	var sites []string
	for _, decl := range f.Decls {
		name := "(package scope)"
		if fn, ok := decl.(*ast.FuncDecl); ok {
			name = fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Map" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					sites = append(sites, name)
				}
			}
			return true
		})
	}
	return sites
}

// recvName is a method receiver's type name without its pointer.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
