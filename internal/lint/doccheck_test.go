// Package lint holds build-time style gates that go vet cannot
// express. The tests here run in CI like any other package's tests, so
// a missing doc comment fails the build the same way a broken one
// would.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// docAuditPackages are the packages whose exported identifiers must
// all carry doc comments: the surfaces the documentation pass covers
// (sweep, bench, faults) plus the plan service, the observability
// packages, and their commands.
var docAuditPackages = []string{
	"../sweep", "../bench", "../faults", "../twolayer", "../strategy",
	"../pland", "../logx", "../prof", "../top", "../explain", "../ring",
	"../../cmd/mccio-pland",
}

// TestExportedIdentifiersDocumented parses each audited package and
// fails for every exported type, function, method, const, or var
// declared without a doc comment. Test files are exempt; fields of
// documented structs are not individually required.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range docAuditPackages {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, file := range pkg.Files {
					for _, missing := range undocumented(fset, file) {
						t.Error(missing)
					}
				}
			}
		})
	}
}

// undocumented returns one message per exported declaration in file
// that has no doc comment.
func undocumented(fset *token.FileSet, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return out
}
