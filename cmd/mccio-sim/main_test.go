package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/explain"
	"repro/internal/iotrace"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestPlanDefaults: -plan with every other flag at its default prints
// the platform, the workload, the tunables and a plan.
func TestPlanDefaults(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-plan"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	for _, want := range []string{"machine: 10 nodes x 12 cores", "workload:", "options:", "aggregation groups:", "decision audit:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunUsageErrors: hostile or inconsistent flags exit 2 with a
// diagnostic — never a panic, never a run.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"one.trace", "two.trace"},
		{"-cores", "0"},
		{"-cores", "-3"},
		{"-procs", "0"},
		{"-procs", "-24"},
		{"-procs", "25", "-cores", "4"}, // not divisible
		{"-mem", "0"},
		{"-workload", "nope"},
		{"-strategy", "nope"},
		{"-op", "foo"},
		{"-plan", "-strategy", "two-phase"},
		{"-plan", "-hints", "romio_cb_write=disable"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
		if errb.Len() == 0 {
			t.Errorf("run(%v): expected a diagnostic on stderr", args)
		}
		if strings.Contains(out.String(), "result:") {
			t.Errorf("run(%v) ran a simulation:\n%s", args, out.String())
		}
	}
}

// recordTrace records wl's writes as a trace file and returns its path.
func recordTrace(t *testing.T, wl workload.Workload) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "app.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := iotrace.FromWorkload(wl, iotrace.Write).Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplay: a TRACE argument replaces the generated workload for
// every strategy and both ops, on ⌈ranks / cores⌉ nodes, and -verify
// checks the replayed bytes; a write-only trace read back reads its
// writes.
func TestReplay(t *testing.T) {
	path := recordTrace(t, workload.IOR{Ranks: 6, BlockSize: 64 << 10, Segments: 4})
	for _, s := range strategy.Names() {
		for _, op := range []string{"write", "read"} {
			var out, errb strings.Builder
			if code := run([]string{"-strategy", s, "-op", op, "-cores", "4", "-mem", "4MB", "-verify", path}, &out, &errb); code != 0 {
				t.Fatalf("%s %s: exit %d: %s", s, op, code, errb.String())
			}
			for _, want := range []string{
				"workload:        trace replay (w, 6 ranks, 24 reqs)",
				"platform:        2 nodes x 4 cores",
				fmt.Sprintf("result:          %s %s: 1.6 MB", s, op),
				"verification:    every byte checked OK",
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("%s %s: output lacks %q:\n%s", s, op, want, out.String())
				}
			}
		}
	}
}

// TestReplayErrors: a TRACE with a generated-workload flag or an
// unusable flag is a usage error; a trace that cannot be read, or that
// has nothing to replay, is an operational one.
func TestReplayErrors(t *testing.T) {
	path := recordTrace(t, workload.IOR{Ranks: 4, BlockSize: 64 << 10, Segments: 2})
	for _, args := range [][]string{
		{"-workload", "ior", path},
		{"-procs", "4", path},
		{"-dim", "64", path},
		{"-block", "1MB", path},
		{"-segments", "2", path},
		{"-cores", "0", path},
		{"-cores", "-2", path},
		{"-mem", "0", path},
		{"-strategy", "nope", path},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 || errb.Len() == 0 {
			t.Errorf("run(%v) = %d, want 2 with a diagnostic (stderr: %s)", args, code, errb.String())
		}
	}
	readOnly := filepath.Join(t.TempDir(), "read-only.trace")
	if err := os.WriteFile(readOnly, []byte("#mccio-trace v1\n0 r 0 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{filepath.Join(t.TempDir(), "missing.trace")},
		{"-op", "write", readOnly},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 1 || errb.Len() == 0 {
			t.Errorf("run(%v) = %d, want 1 with a diagnostic (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestRunOperationalErrors: well-formed flags naming something
// unusable exit 1.
func TestRunOperationalErrors(t *testing.T) {
	cases := [][]string{
		{"-mem", "lots"},
		{"-hints", "mccio_node_combine=true", "-procs", "8", "-cores", "4"}, // removed key
		{"-faults", filepath.Join(t.TempDir(), "missing.json"), "-procs", "8", "-cores", "4"},
	}
	// Fault entries naming a node, OST or rank the 24 x 12 run lacks.
	for i, spec := range []string{
		`{"mem_pressure":[{"node":99,"round":0,"bytes":1000}]}`,
		`{"node_failures":[{"node":99,"round":0}]}`,
		`{"slow_links":[{"node":99,"factor":2}]}`,
		`{"slow_osts":[{"ost":999,"factor":2}]}`,
		`{"rank_failures":[{"rank":9999,"round":0}]}`,
	} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("faults%d.json", i))
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, []string{"-strategy", "mccio", "-workload", "ior", "-procs", "24", "-cores", "12", "-mem", "4MB", "-faults", path})
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 1 || errb.Len() == 0 {
			t.Errorf("run(%v) = %d, want 1 with a diagnostic (stderr: %s)", args, code, errb.String())
		}
	}
}

// decisions reads a decision audit back and returns its planner events
// (group division, bisections, trees, remerges, placements) with the
// two fields that legitimately differ between a run and -plan blanked:
// the virtual-time stamp and the operation label.
func decisions(t *testing.T, path string) []explain.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := explain.ParseJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var out []explain.Event
	for _, e := range events {
		switch e.Kind {
		case explain.KindGroups, explain.KindBisect, explain.KindTree, explain.KindRemerge, explain.KindPlace, explain.KindLeader:
			e.T, e.Op = 0, ""
			out = append(out, e)
		}
	}
	return out
}

// byGroup splits an audit into each group's events, in emission order
// (-1 holds the world-level ones). Groups plan concurrently, so how
// their events interleave follows the simulated times of their
// sub-communicator collectives; what -plan must reproduce is each
// group's own sequence.
func byGroup(events []explain.Event) map[int][]explain.Event {
	out := make(map[int][]explain.Event)
	for _, e := range events {
		out[e.Group] = append(out[e.Group], e)
	}
	return out
}

// TestPlanIsExecutedPlan is the CLI's parity check, for IOR on 24
// ranks x 4 per node, 8 MB, sigma 50 and variations: -plan's decision
// audit is, group by group, event for event the audit of the run with
// the same flags,
// and what -plan prints is that audit — every group, and per placement
// the domain start, aggregator, host and buffer; as many domains as the
// run reports aggregators, and its remerge figure.
func TestPlanIsExecutedPlan(t *testing.T) {
	for _, extra := range [][]string{nil, {"-twolayer"}, {"-mem", "2MB"}, {"-seed", "7", "-workload", "random"}, {"-hints", "collective=mccio,mccio_nah=2"}} {
		flags := append([]string{"-workload", "ior", "-procs", "24", "-cores", "4", "-mem", "8MB", "-sigma", "50"}, extra...)
		t.Run(strings.Join(extra, " "), func(t *testing.T) {
			dir := t.TempDir()
			planAudit, runAudit := filepath.Join(dir, "plan.jsonl"), filepath.Join(dir, "run.jsonl")
			var plan, out, errb strings.Builder
			if code := run(append([]string{"-plan", "-explain", planAudit}, flags...), &plan, &errb); code != 0 {
				t.Fatalf("-plan: exit %d: %s", code, errb.String())
			}
			if code := run(append([]string{"-explain", runAudit}, flags...), &out, &errb); code != 0 {
				t.Fatalf("run: exit %d: %s", code, errb.String())
			}
			planned, executed := decisions(t, planAudit), decisions(t, runAudit)
			if !reflect.DeepEqual(byGroup(planned), byGroup(executed)) {
				t.Fatalf("-plan decided differently from the run:\nplan %+v\nrun  %+v", planned, executed)
			}
			var groups, domains int
			for _, e := range executed {
				switch e.Kind {
				case explain.KindGroups:
					groups = len(e.Groups)
					for gi, g := range e.Groups {
						want := fmt.Sprintf("group %d: ranks [%d..%d] on %d node(s), %.2f MB requested",
							gi, g.First, g.Last, g.Nodes, float64(g.Bytes)/1e6)
						if !strings.Contains(plan.String(), want) {
							t.Errorf("-plan lacks the executed group %q", want)
						}
					}
				case explain.KindPlace:
					// A later remerge may stretch the domain's end, never its
					// start, aggregator, host or buffer.
					domains++
					want := regexp.MustCompile(fmt.Sprintf(`domain \[%d,\d+\) [\d.]+ MB -> group-rank %d \(node %d\), buffer %.2f MB`,
						e.Lo, e.Rank, e.Node, float64(e.Buf)/1e6))
					if !want.MatchString(plan.String()) {
						t.Errorf("-plan lacks the executed placement %s (group %d)", want, e.Group)
					}
				}
			}
			if want := fmt.Sprintf("aggregation groups: %d\n", groups); groups == 0 || !strings.Contains(plan.String(), want) {
				t.Errorf("-plan does not print %q", want)
			}
			if got := strings.Count(plan.String(), "    domain ["); domains == 0 || got != domains {
				t.Errorf("-plan prints %d domains, the run placed %d", got, domains)
			}
			// The run reports every group's remerges: their sum.
			remerges := 0
			for _, m := range regexp.MustCompile(`leaves, (\d+) remerges\)`).FindAllStringSubmatch(plan.String(), -1) {
				n, _ := strconv.Atoi(m[1])
				remerges += n
			}
			if want := fmt.Sprintf("aggregators:     %d in %d groups (%d remerges)", domains, groups, remerges); !strings.Contains(out.String(), want) {
				t.Errorf("run summary lacks %q:\n%s", want, out.String())
			}
		})
	}
}
