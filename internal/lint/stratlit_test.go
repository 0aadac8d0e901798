package lint

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

// strategyTypes are the collective strategies, by import path and type
// name. adio.New is the one place a strategy name becomes one of them.
var strategyTypes = map[string]string{
	"repro/internal/collio":   "TwoPhase",
	"repro/internal/core":     "MCCIO",
	"repro/internal/twolayer": "Strategy",
	"repro/internal/iolib":    "Naive",
}

// TestStrategyLiteralsOnlyInAdio fails on a composite literal of a
// strategy type in any non-test file under internal/ or cmd/ outside
// internal/adio, whatever name its package is imported under. Code
// that spells a strategy out by hand drifts from the one that adio.New
// (and so the CLIs, the hints and pland) builds for the same name;
// grids and drivers name strategies with the internal/strategy
// constants instead.
func TestStrategyLiteralsOnlyInAdio(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(repoRoot, root), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if strings.HasSuffix(dir, "internal/adio") {
				return nil
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			// The type each local package name stands for here, and the
			// one declared in this package itself, if any.
			local := map[string]string{}
			for _, im := range file.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name, ok := strategyTypes[p]
				if !ok {
					continue
				}
				pkg := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					pkg = im.Name.Name
				}
				local[pkg] = name
			}
			own := ""
			for p, name := range strategyTypes {
				if strings.HasSuffix(dir, strings.TrimPrefix(p, "repro/")) {
					own = name
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				var hit string
				switch typ := lit.Type.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := typ.X.(*ast.Ident); ok && local[pkg.Name] == typ.Sel.Name {
						hit = pkg.Name + "." + typ.Sel.Name
					}
				case *ast.Ident:
					if own != "" && typ.Name == own {
						hit = typ.Name
					}
				}
				if hit != "" {
					p := fset.Position(lit.Pos())
					t.Errorf("%s:%d: strategy literal %s{...} outside internal/adio — build it with adio.New and a strategy constant",
						p.Filename, p.Line, hit)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
