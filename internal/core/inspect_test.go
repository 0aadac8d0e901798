package core

import (
	"strings"
	"testing"

	"repro/internal/datatype"
)

// inspectViews gives each of n ranks one 1 MiB block at its own
// offset.
func inspectViews(n int) []datatype.List {
	views := make([]datatype.List, n)
	for r := range views {
		views[r] = datatype.List{{Off: int64(r) << 20, Len: 1 << 20}}
	}
	return views
}

func TestInspectRejectsBadInput(t *testing.T) {
	machine := testMachine(t, 2, 2, 8<<20, 0)
	good := testOpts(1<<20, 2<<20)
	for name, tc := range map[string]struct {
		opts  Options
		views []datatype.List
	}{
		"zero Msgind":           {Options{Nah: 1}, inspectViews(4)},
		"zero Nah":              {Options{Msgind: 1 << 20}, inspectViews(4)},
		"negative Memmin":       {Options{Msgind: 1 << 20, Nah: 1, Memmin: -1}, inspectViews(4)},
		"no views":              {good, nil},
		"more views than ranks": {good, inspectViews(5)},
	} {
		if res, err := (MCCIO{Opts: tc.opts}).Inspect(machine, tc.views); err == nil {
			t.Errorf("%s: Inspect returned %+v, want an error", name, res)
		}
	}
}

// TestInspectEmptyGroup: a group whose members request nothing has no
// tree and no placements, and Summary still renders it.
func TestInspectEmptyGroup(t *testing.T) {
	machine := testMachine(t, 2, 2, 8<<20, 0)
	views := inspectViews(4)
	views[2], views[3] = nil, nil // node 1 requests nothing
	opts := testOpts(1<<20, 1<<20)
	res, err := MCCIO{Opts: opts}.Inspect(machine, views)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 2 || res.Plans[1].Group.Bytes != 0 {
		t.Fatalf("want a data group and an empty one, got %+v", res.Plans)
	}
	all := make([]datatype.List, 4)
	empty, err := MCCIO{Opts: opts}.Inspect(machine, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range []*InspectResult{res, empty} {
		for gi, gp := range ir.Plans {
			if gp.Coverage.TotalBytes() > 0 {
				if gp.Tree == nil || len(gp.Placements) == 0 {
					t.Errorf("group %d holds data but has no plan", gi)
				}
				continue
			}
			if gp.Tree != nil || gp.Placements != nil || gp.Remerges != 0 || gp.Leaders != nil {
				t.Errorf("empty group %d planned something: %+v", gi, gp)
			}
		}
		if s := ir.Summary(); !strings.Contains(s, "aggregation groups:") {
			t.Errorf("summary missing its header:\n%s", s)
		}
	}
	if gp := empty.Plans[0]; gp.Tree != nil {
		t.Errorf("all-empty layout built a tree")
	}
}

// TestInspectTwoLayerElection: Options.TwoLayer elects one leader per
// node where nodes host several ranks, and none — the flat exchange —
// on a one-rank-per-node machine.
func TestInspectTwoLayerElection(t *testing.T) {
	opts := testOpts(1<<20, 0)
	opts.TwoLayer = true
	multi, err := MCCIO{Opts: opts}.Inspect(testMachine(t, 2, 2, 8<<20, 0), inspectViews(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(multi.Plans[0].Leaders); got != 2 {
		t.Errorf("2 nodes x 2 ranks elected %d leaders, want 2", got)
	}
	if s := multi.Summary(); !strings.Contains(s, "node leaders (two-layer)") {
		t.Errorf("summary does not list the leaders:\n%s", s)
	}
	single, err := MCCIO{Opts: opts}.Inspect(testMachine(t, 4, 1, 8<<20, 0), inspectViews(4))
	if err != nil {
		t.Fatal(err)
	}
	for gi, gp := range single.Plans {
		if gp.Leaders != nil {
			t.Errorf("group %d: one rank per node elected %+v", gi, gp.Leaders)
		}
	}
	if s := single.Summary(); strings.Contains(s, "node leaders") {
		t.Errorf("summary lists leaders nobody elected:\n%s", s)
	}
}

// TestInspectDisableGroups: the ablation collapses a layout that
// divides into several groups into one.
func TestInspectDisableGroups(t *testing.T) {
	machine := testMachine(t, 4, 2, 8<<20, 0)
	opts := testOpts(1<<20, 2<<20)
	divided, err := MCCIO{Opts: opts}.Inspect(machine, inspectViews(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(divided.Plans) < 2 {
		t.Fatalf("layout divides into %d group(s); the test needs several", len(divided.Plans))
	}
	opts.DisableGroups = true
	one, err := MCCIO{Opts: opts}.Inspect(machine, inspectViews(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Plans) != 1 {
		t.Fatalf("DisableGroups left %d plans", len(one.Plans))
	}
	if g := one.Plans[0].Group; g.First != 0 || g.Last != 7 || g.Nodes != 4 {
		t.Errorf("the one group is %+v, want ranks 0..7 on 4 nodes", g)
	}
	if s := one.Summary(); !strings.Contains(s, "aggregation groups: 1\n") {
		t.Errorf("summary:\n%s", s)
	}
}
