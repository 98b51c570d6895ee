package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurface pins the package's exported names to the ones
// callers outside it use (mcdserve, mcdbench, mcdtop and perfbench):
// build a Manager, serve it, close it, read job snapshots, and gate
// submissions on the fleet. Every submission enters through the HTTP
// handlers, so a second exported way into the job manager fails here.
// Methods are named Recv.Method; the walk covers the package's non-test
// files.
func TestExportedSurface(t *testing.T) {
	allowed := []string{
		"DispatchFunc", "Done", "ErrFleet", "Failed", "Manager", "Manager.Close",
		"New", "NewHandler", "Options", "Queued", "Running", "Snapshot",
		"Snapshot.Terminal", "State",
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, exportedNames(f)...)
	}
	slices.Sort(got)
	for _, n := range got {
		if !slices.Contains(allowed, n) {
			t.Errorf("%s is exported but has no caller outside the package: unexport it, or add its caller here", n)
		}
	}
	for _, n := range allowed {
		if !slices.Contains(got, n) {
			t.Errorf("%s is no longer exported; update this test", n)
		}
	}
}

// exportedNames lists f's exported top-level functions, types,
// variables and constants, and its exported methods as Recv.Method.
func exportedNames(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				names = append(names, d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			names = append(names, recv.(*ast.Ident).Name+"."+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	return names
}
