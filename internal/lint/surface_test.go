package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// repoRoot is the module root as seen from this package's directory.
const repoRoot = "../.."

// uncalledAllowed are the exported functions and methods under
// internal/ that may exist without a non-test caller in this module,
// keyed "package.Name". Two kinds only: names benchmarks/README.md
// freezes ("The API the benchmark imports") that benchmarks/ itself
// reaches through a value the syntactic scan cannot follow, and the
// reference implementations tests compare the planner and the round
// driver against.
var uncalledAllowed = map[string]string{
	"collio.LowestRankLeaders": "test oracle: the reference leader topology the collio/core combine tests build plans with",
	"logx.ParseRecords":        "test oracle: reads a request log back so pland's tests can check what the daemon wrote",
}

// calledByStdlib are method names the standard library calls through
// its own interfaces (encoding/json here), which no scan of this
// module can see.
var calledByStdlib = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true}

// goFile is one parsed non-test source file of the module.
type goFile struct {
	pkgDir  string // directory, relative to repoRoot
	ast     *ast.File
	lines   int
	imports map[string]struct{} // repro/... import paths
}

// parseModule parses every non-test .go file under repoRoot.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != repoRoot && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repoRoot, filepath.Dir(path))
		gf := goFile{pkgDir: filepath.ToSlash(rel), ast: f, lines: fset.File(f.Pos()).LineCount(), imports: map[string]struct{}{}}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			gf.imports[p] = struct{}{}
		}
		files = append(files, gf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExportedFuncsHaveNonTestCaller keeps the surface from silently
// regrowing: every exported function or method declared under
// internal/ must be named by some non-test file of the module (in its
// own package, or in one that imports it) outside its own declaration.
// The scan is syntactic — a use is any identifier or selector with the
// name — so it never flags an interface method that is only called
// through the interface; what it does flag is API kept alive by its
// own tests alone.
func TestExportedFuncsHaveNonTestCaller(t *testing.T) {
	files := parseModule(t)
	// uses[name] = the package dirs of the files naming it, with the
	// repro/ import paths those files can reach.
	type use struct {
		file *goFile
		n    int
	}
	uses := map[string][]use{}
	for i := range files {
		gf := &files[i]
		counts := map[string]int{}
		ast.Inspect(gf.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.IsExported() {
				counts[id.Name]++
			}
			return true
		})
		for name, n := range counts {
			uses[name] = append(uses[name], use{gf, n})
		}
	}
	seen := map[string]bool{}
	for i := range files {
		gf := &files[i]
		if !strings.HasPrefix(gf.pkgDir, "internal/") {
			continue
		}
		// Declarations of the same name in this file are not uses.
		declared := map[string]int{}
		method := map[string]bool{}
		for _, d := range gf.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				declared[fd.Name.Name]++
				method[fd.Name.Name] = method[fd.Name.Name] || fd.Recv != nil
			}
		}
		for name, decls := range declared {
			key := filepath.Base(gf.pkgDir) + "." + name
			seen[key] = true
			called := method[name] && calledByStdlib[name]
			for _, u := range uses[name] {
				n := u.n
				if u.file == gf {
					n -= decls
				}
				_, imports := u.file.imports["repro/"+gf.pkgDir]
				if n > 0 && (method[name] || imports || u.file.pkgDir == gf.pkgDir) {
					called = true
					break
				}
			}
			if _, ok := uncalledAllowed[key]; !called && !ok {
				t.Errorf("%s: exported %s has no caller outside _test.go files: delete it with its tests, or unexport it", gf.pkgDir, key)
			}
		}
	}
	for key := range uncalledAllowed {
		if !seen[key] {
			t.Errorf("allow-list names %s, which no longer exists", key)
		}
	}
}

// TestCLIReferenceMatchesTree holds README's "CLI reference" to the
// tree in both directions: every directory under cmd/ has a "### name"
// section and every such section a directory; every name in the
// experiment table is listed in the mccio-bench section and every
// listed name is in the table.
func TestCLIReferenceMatchesTree(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	start := strings.Index(readme, "\n## CLI reference")
	if start < 0 {
		t.Fatal(`README.md has no "## CLI reference" section`)
	}
	ref := readme[start+1:]
	if end := strings.Index(ref[1:], "\n## "); end >= 0 {
		ref = ref[:end+1]
	}

	entries, err := os.ReadDir(filepath.Join(repoRoot, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	var sections []string
	for _, m := range regexp.MustCompile("(?m)^### `?(mccio-[a-z]+)`?").FindAllStringSubmatch(ref, -1) {
		sections = append(sections, m[1])
	}
	sort.Strings(sections)
	if strings.Join(dirs, " ") != strings.Join(sections, " ") {
		t.Errorf("cmd/ holds [%s] but the CLI reference documents [%s]",
			strings.Join(dirs, " "), strings.Join(sections, " "))
	}

	line := regexp.MustCompile("(?m)^`-experiment` names: (.*)$").FindStringSubmatch(ref)
	if line == nil {
		t.Fatal("CLI reference has no \"`-experiment` names: ...\" line")
	}
	var listed []string
	for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(line[1], -1) {
		listed = append(listed, m[1])
	}
	if want := append(bench.ExperimentNames(), "all"); strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("README lists experiments [%s], the table holds [%s]",
			strings.Join(listed, " "), strings.Join(want, " "))
	}
}
