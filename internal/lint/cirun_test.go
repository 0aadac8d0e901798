package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goTestRun matches one `go test … -run '…' …` command line of ci.yml:
// the pattern and the rest of the line, which names the packages.
var goTestRun = regexp.MustCompile(`go test [^\n]*?-run '([^']*)'([^\n]*)`)

// testFunc matches a top-level test declaration.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// TestCIRunPatternsMatchTests keeps ci.yml's named test steps from
// rotting silently: a test that is renamed or folded drops out of a
// `-run` regex without failing anything. Every alternative of every
// `go test … -run '…'` pattern in ci.yml must match some func Test… in
// the packages that step lists (`./...` is the whole module). `^$`, the
// idiom for running no tests beside -fuzz or -bench, is exempt.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := goTestRun.FindAllStringSubmatch(string(raw), -1)
	if len(steps) == 0 {
		t.Fatal("ci.yml has no `go test … -run '…'` step: goTestRun no longer parses it")
	}
	for _, step := range steps {
		var pkgs, names []string
		for _, arg := range strings.Fields(step[2]) {
			if strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
				names = append(names, testNames(t, arg)...)
			}
		}
		if len(names) == 0 {
			t.Errorf("-run '%s': the step lists no package with tests", step[1])
			continue
		}
		for _, alt := range alternatives(step[1]) {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("-run alternative %q matches no func Test… in %s", alt, strings.Join(pkgs, " "))
			}
		}
	}
}

// alternatives splits a regexp at its top-level | operators.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// testNames returns the Test functions declared in the _test.go files
// of the package pattern pkg ("./dir/" or "./dir/..."), relative to the
// module root.
func testNames(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "...")
	dir = filepath.Join(repoRoot, dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("package %s: %v", pkg, err)
	}
	return names
}
