package lint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// surface is one package's non-test size: its lines, and its exported
// identifiers — package-level funcs, types, vars and consts, the
// methods of exported types, and the fields and interface methods of
// exported types.
type surface struct{ Lines, Exports int }

// surfaceBudget is the checked-in size of every package of the module,
// keyed by directory relative to the module root. TestSurfaceRatchet
// holds each package to it exactly: a change that grows a package
// raises its numbers in the same diff, where review sees it, and a
// change that shrinks one lowers them, so no slack is left for
// regrowth to hide in.
var surfaceBudget = map[string]surface{
	"benchmarks":          {Lines: 2567, Exports: 0},
	"cmd/mccio-bench":     {Lines: 196, Exports: 0},
	"cmd/mccio-pland":     {Lines: 476, Exports: 0},
	"cmd/mccio-report":    {Lines: 235, Exports: 0},
	"cmd/mccio-sim":       {Lines: 455, Exports: 0},
	"cmd/mccio-trace":     {Lines: 149, Exports: 0},
	"examples/checkpoint": {Lines: 83, Exports: 0},
	"examples/collperf3d": {Lines: 67, Exports: 0},
	"examples/ior":        {Lines: 73, Exports: 0},
	"examples/quickstart": {Lines: 104, Exports: 0},
	"internal/adio":       {Lines: 289, Exports: 7},
	"internal/bench":      {Lines: 1883, Exports: 94},
	"internal/buffer":     {Lines: 133, Exports: 12},
	"internal/cluster":    {Lines: 354, Exports: 53},
	"internal/collio":     {Lines: 2017, Exports: 44},
	"internal/core":       {Lines: 1498, Exports: 65},
	"internal/datatype":   {Lines: 365, Exports: 43},
	"internal/explain":    {Lines: 995, Exports: 104},
	"internal/faults":     {Lines: 635, Exports: 62},
	"internal/iolib":      {Lines: 367, Exports: 26},
	"internal/iotrace":    {Lines: 301, Exports: 33},
	"internal/logx":       {Lines: 172, Exports: 20},
	"internal/metrics":    {Lines: 828, Exports: 61},
	"internal/mpi":        {Lines: 1326, Exports: 38},
	"internal/obs":        {Lines: 868, Exports: 109},
	"internal/pfs":        {Lines: 433, Exports: 19},
	"internal/pland":      {Lines: 2330, Exports: 156},
	"internal/prof":       {Lines: 538, Exports: 24},
	"internal/resource":   {Lines: 202, Exports: 18},
	"internal/ring":       {Lines: 183, Exports: 8},
	"internal/simtime":    {Lines: 715, Exports: 41},
	"internal/stats":      {Lines: 264, Exports: 28},
	"internal/strategy":   {Lines: 73, Exports: 9},
	"internal/sweep":      {Lines: 302, Exports: 13},
	"internal/top":        {Lines: 216, Exports: 27},
	"internal/trace":      {Lines: 98, Exports: 23},
	"internal/twolayer":   {Lines: 241, Exports: 25},
	"internal/workload":   {Lines: 376, Exports: 60},
	"tools/docscheck":     {Lines: 191, Exports: 6},
}

// exported counts the exported identifiers f declares (see surface).
func exported(f *ast.File) int {
	n := 0
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv.List[0].Type)) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n += 1 + members(s.Type)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverExported reports whether a method's receiver type is
// exported: T, *T, T[P] or *T[P].
func receiverExported(x ast.Expr) bool {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.IsExported()
		default:
			return false
		}
	}
}

// members counts the exported fields of a struct type or methods of an
// interface type (an embedded field counts under its type's name).
func members(x ast.Expr) int {
	var fields *ast.FieldList
	switch t := x.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return 0
	}
	n := 0
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if receiverExported(f.Type) {
				n++
			}
			continue
		}
		for _, id := range f.Names {
			if id.IsExported() {
				n++
			}
		}
	}
	return n
}

// TestSurfaceRatchet measures every package's surface and compares it
// with surfaceBudget, both ways; a package without an entry fails too,
// and so does an entry naming no package. A failure prints the entries
// to check in.
func TestSurfaceRatchet(t *testing.T) {
	got := map[string]surface{}
	for _, gf := range parseModule(t) {
		s := got[gf.pkgDir]
		s.Lines += gf.lines
		s.Exports += exported(gf.ast)
		got[gf.pkgDir] = s
	}
	var stale []string
	for pkg, s := range got {
		if want, ok := surfaceBudget[pkg]; !ok || s != want {
			stale = append(stale, fmt.Sprintf("\t%q: {Lines: %d, Exports: %d}, // budget %+v", pkg, s.Lines, s.Exports, want))
		}
	}
	for pkg := range surfaceBudget {
		if _, ok := got[pkg]; !ok {
			stale = append(stale, fmt.Sprintf("\t%q: no such package: delete the entry", pkg))
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		t.Errorf("the surface moved; check in, in surfaceBudget:\n%s", strings.Join(stale, "\n"))
	}
}
