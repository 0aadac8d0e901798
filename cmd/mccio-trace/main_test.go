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

// TestGenStat drives both subcommands end to end.
func TestGenStat(t *testing.T) {
	path := genTrace(t)
	var out, errb strings.Builder
	if code := run([]string{"stat", path}, &out, &errb); code != 0 || !strings.Contains(out.String(), "ranks:        8") {
		t.Fatalf("stat: exit %d\n%s%s", code, out.String(), errb.String())
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
		{"stat", path, path},
		{"run", path}, // replay is mccio-sim's
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
