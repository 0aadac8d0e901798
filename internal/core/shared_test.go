package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// TestDivisionSharedByEveryRank: group division is derived once per
// collective call, so every rank holds the same groups slice.
func TestDivisionSharedByEveryRank(t *testing.T) {
	const p = 12
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, testMachine(t, 3, 4, 64*cluster.MiB, 0), p)
	if err != nil {
		t.Fatal(err)
	}
	mc := MCCIO{Opts: testOpts(128<<10, 512<<10)}
	groups := make([][]Group, p)
	w.Start(func(c *mpi.Comm) {
		groups[c.Rank()] = mc.divide(c, interleavedView(c.Rank(), p, 16, 4<<10)).groups
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) < 2 {
		t.Fatalf("%d groups: msggroup should have split this workload", len(groups[0]))
	}
	for r := range groups {
		if &groups[r][0] != &groups[0][0] {
			t.Errorf("rank %d holds its own groups slice", r)
		}
	}
}

// TestDivisionAndPlacementSeeOneSnapshot: two ranks of one node may
// report different availability — here rank 1 stages 1 MiB on node 0
// after rank 0 has reported. Group division and aggregator placement
// must work from one value, the node's first rank's: the planner gauge
// (the snapshot division used) and the NodeAvail of every domain placed
// on node 0 (the snapshot placement used) both equal rank 0's report.
func TestDivisionAndPlacementSeeOneSnapshot(t *testing.T) {
	const p, staged = 4, 1 << 20
	m := testMachine(t, 2, 2, 64*cluster.MiB, 0)
	reg := metrics.New()
	m.SetMetrics(reg)
	reported := m.Node(0).Available()
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, m, p)
	if err != nil {
		t.Fatal(err)
	}
	mc := MCCIO{Opts: testOpts(256<<10, 0)}
	var onNode0 []collio.Domain
	w.Start(func(c *mpi.Comm) {
		if c.Rank() == 1 {
			c.Proc().Sleep(1e-6) // rank 0 has reported by now
			m.Node(0).MustAlloc(staged)
			defer m.Node(0).Free(staged)
		}
		sub, plan := mc.Plan("write", c, interleavedView(c.Rank(), p, 16, 64<<10), &trace.Metrics{})
		if c.Rank() == 0 {
			for _, d := range plan.(*collio.Plan).Domains {
				if sub.NodeOf(d.Agg) == 0 {
					onNode0 = append(onNode0, d)
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, ok := snap.Get("mccio_plan_node_mem_avail_bytes", map[string]string{"node": "0"}); !ok || int64(got) != reported {
		t.Errorf("division saw %v MB on node 0 (recorded %v), want rank 0's report %v MB", got/(1<<20), ok, reported>>20)
	}
	if len(onNode0) == 0 {
		t.Fatal("no domain placed on node 0: the test no longer reaches placement there")
	}
	for _, d := range onNode0 {
		if d.NodeAvail != reported {
			t.Errorf("placement saw %d MB on node 0 for domain [%d,%d), want rank 0's report %d MB", d.NodeAvail>>20, d.Lo, d.Hi, reported>>20)
		}
	}
}
