package collio_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// capturedPlan is one group's plan with the rank maps of its
// communicator.
type capturedPlan struct {
	plan            *collio.Plan
	nodeOf, worldOf func(int) int
}

// capture runs a strategy unchanged and keeps every plan it hands out,
// once per group.
type capture struct {
	iolib.Collective
	plans []capturedPlan
}

func (s *capture) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, iolib.Schedule) {
	sub, sched := s.Collective.Plan(op, c, view, m)
	if p, ok := sched.(*collio.Plan); ok && sub.Rank() == 0 {
		s.plans = append(s.plans, capturedPlan{p, sub.NodeOf, sub.WorldRank})
	}
	return sub, sched
}

// TestRemergeRulesOnChaosGrid runs the chaos grid of internal/bench's
// TestGoldenChaosSeedEngine — every round-engine strategy, write and
// read, under examples/chaos.json and examples/chaos-leader.json on 4
// nodes x 4 ranks — captures every group's plan, and holds the tree rule
// against the sibling rule it replaced over each plan's failover steps,
// printing every remerge the two decide differently (-v).
func TestRemergeRulesOnChaosGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	const (
		nodes, perNode = 4, 4
		mem            = 1 * cluster.MiB
		seed           = 2
	)
	wl := workload.IOR{Ranks: nodes * perNode, BlockSize: 256 << 10, Segments: 8, TransferSize: 256 << 10}
	fcfg := bench.TestbedFS(seed)
	mcfg := bench.TestbedMachine(nodes, mem, bench.SigmaBytes, seed)
	mcfg.CoresPerNode = perNode
	opts := bench.MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
	optsTL := opts
	optsTL.TwoLayer = true
	strategies := []struct {
		name string
		s    iolib.Collective
	}{
		{"two-phase", collio.TwoPhase{CBBuffer: mem}},
		{"two-layer", twolayer.Strategy{CBBuffer: mem}},
		{"mccio", core.MCCIO{Opts: opts}},
		{"mccio+two-layer", core.MCCIO{Opts: optsTL}},
	}
	remerges, differ := 0, 0
	for _, fault := range []string{"chaos", "chaos-leader"} {
		spec, err := faults.LoadSpec(filepath.Join("..", "..", "examples", fault+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range strategies {
			for _, op := range []string{"write", "read"} {
				key := fmt.Sprintf("%s/%s/%s", fault, st.name, op)
				sched, err := faults.NewSchedule(spec)
				if err != nil {
					t.Fatal(err)
				}
				cp := &capture{Collective: st.s}
				if _, err := bench.RunOnce(bench.Spec{Strategy: cp, Op: op, Machine: mcfg, FS: fcfg, Workload: wl, Verify: true, Faults: sched}); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				for _, c := range cp.plans {
					n, diffs := collio.RuleDiffs(t, sched, c.nodeOf, c.worldOf, c.plan)
					for _, d := range diffs {
						t.Logf("%s group %d: %s", key, c.plan.Group, d)
					}
					remerges, differ = remerges+n, differ+len(diffs)
				}
			}
		}
	}
	t.Logf("%d of %d remerges decided differently", differ, remerges)
	if remerges == 0 {
		t.Error("no remerge on the chaos grid: the schedules no longer reach an aggregator")
	}
}
