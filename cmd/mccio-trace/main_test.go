package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// genTrace records a small IOR pattern and returns the trace's path.
func genTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ior.trace")
	var out, errb strings.Builder
	if code := run([]string{"gen", "-workload", "ior", "-procs", "8", "-block", "64", "-out", path}, &out, &errb); code != 0 {
		t.Fatalf("gen: exit %d: %s", code, errb.String())
	}
	return path
}

// TestGenStatRun drives the three subcommands end to end.
func TestGenStatRun(t *testing.T) {
	path := genTrace(t)
	var out, errb strings.Builder
	if code := run([]string{"stat", path}, &out, &errb); code != 0 || !strings.Contains(out.String(), "ranks:        8") {
		t.Fatalf("stat: exit %d\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := run([]string{"run", "-strategy", "mccio", "-cores", "4", path}, &out, &errb); code != 0 {
		t.Fatalf("run: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "with mccio write on 2 nodes x 4 cores") {
		t.Fatalf("run output:\n%s", out.String())
	}
}

// TestUsageErrors: hostile or inconsistent arguments exit 2 with a
// diagnostic — never a panic.
func TestUsageErrors(t *testing.T) {
	path := genTrace(t)
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"stat"},
		{"run"},
		{"run", "-no-such-flag", path},
		{"run", "-cores", "0", path},
		{"run", "-cores", "-2", path},
		{"run", "-mem", "0", path},
		{"run", "-strategy", "nope", path},
		{"gen", "-procs", "0"},
		{"gen", "-procs", "-4"},
		{"gen", "-workload", "nope"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
		if errb.Len() == 0 {
			t.Errorf("run(%v): expected a diagnostic on stderr", args)
		}
	}
	var out, errb strings.Builder
	if code := run([]string{"stat", filepath.Join(t.TempDir(), "missing.trace")}, &out, &errb); code != 1 {
		t.Errorf("stat of a missing file = %d, want 1", code)
	}
}
