package mcd_test

import (
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

// TestEntryPointMapCoversLibrary pins DESIGN.md's entry-point map to the
// code: every exported name of the root mcd package and every package
// directory of the module has a row, and the map names no mcd.X that
// the package does not export and no package row whose directory holds
// no package (so a deleted entry point cannot linger in it). The walk
// skips the separate perfbench module and hidden
// directories, as internal/runner's TestMapCallers does.
func TestEntryPointMapCoversLibrary(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## Entry-point map\n")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "## Entry-point map" section`)
	}
	section = section[start+1:]
	if end := strings.Index(section[3:], "\n## "); end >= 0 {
		section = section[:end+3]
	}

	f, err := parser.ParseFile(token.NewFileSet(), "mcd.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported[n.Name] = true
						}
					}
				}
			}
		}
	}
	for name := range exported {
		if !strings.Contains(section, "`mcd."+name+"`") {
			t.Errorf("exported mcd.%s is missing from DESIGN.md's entry-point map", name)
		}
	}
	for _, m := range regexp.MustCompile("`mcd\\.([A-Z][A-Za-z0-9]*)`").FindAllStringSubmatch(section, -1) {
		if !exported[m[1]] {
			t.Errorf("DESIGN.md's entry-point map names mcd.%s, which mcd.go does not export", m[1])
		}
	}

	pkgs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == "." {
			return err
		}
		if path == "perfbench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		src, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, s := range src {
			if !strings.HasSuffix(s, "_test.go") {
				dir := filepath.ToSlash(path)
				pkgs[dir] = true
				if !strings.Contains(section, "`"+dir+"`") {
					t.Errorf("package %s has no row in DESIGN.md's entry-point map", dir)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+/[^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		if !pkgs[m[1]] {
			t.Errorf("DESIGN.md's entry-point map has a row for %s, which is not a package directory", m[1])
		}
	}
}
