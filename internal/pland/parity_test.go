package pland

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/strategy"
	"repro/internal/sweep"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// goldenScaleSeed reads the (scale, seed) a bench trajectory golden was
// recorded at, so the parity layouts are the goldens' own.
func goldenScaleSeed(t *testing.T, name string) (float64, uint64) {
	t.Helper()
	g, err := bench.ReadBenchFile(filepath.Join("..", "bench", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return g.Scale, g.Seed
}

// parityLayouts rebuilds the workloads and platforms of the four
// trajectory goldens under internal/bench/testdata: the regression rows
// (IOR interleaved, 24 ranks on 2 × 12, both memory points), the sweep
// grid (the same layout at every memory point and seed variant), the
// strategies comparison (node-shared tiles on 4 × 4) and the faulted
// trajectory's platform (16 ranks on 4 × 4 at 1 MiB, fault-free here:
// the plan precedes the first fault).
func parityLayouts(t *testing.T) []planLayout {
	ior := func(ranks int, scale float64) workload.IOR {
		block := int64(float64(4*cluster.MiB) * scale)
		if block < 64<<10 {
			block = 64 << 10
		}
		return workload.IOR{Ranks: ranks, BlockSize: block, Segments: 8, TransferSize: block}
	}
	var out []planLayout
	add := func(name string, nodes, cores int, mem int64, seed uint64, wl workload.Workload) {
		mc, fc := testbed(nodes, cores, mem, seed)
		out = append(out, planLayout{name, mc, fc, wl})
	}
	scale, seed := goldenScaleSeed(t, "regression_seed_engine.json")
	for _, mem := range bench.RegressionMems {
		add(fmt.Sprintf("regression/mem=%d", mem), 2, 12, mem, seed, ior(24, scale))
	}
	scale, seed = goldenScaleSeed(t, "sweep_seed_engine.json")
	for mi, mem := range bench.SweepMems {
		for v := 0; v < bench.SweepVariants; v++ {
			// The grid's mccio/write row of this cell: rows run memory ×
			// strategy × op × variant.
			row := ((mi*2+1)*2+0)*bench.SweepVariants + v
			add(fmt.Sprintf("sweep/mem=%d/v%d", mem, v), 2, 12, mem, sweep.Seed(seed, row), ior(24, scale))
		}
	}
	scale, seed = goldenScaleSeed(t, "strategies_seed_engine.json")
	tile := int64(float64(256<<10) * scale)
	views := make([]datatype.List, bench.StrategiesNodes*bench.StrategiesPerNode)
	for r := range views {
		n := r / bench.StrategiesPerNode
		for k := 0; k < 6; k++ {
			views[r] = append(views[r], datatype.Segment{Off: int64(k*bench.StrategiesNodes+n) * tile, Len: tile})
		}
	}
	add("strategies", bench.StrategiesNodes, bench.StrategiesPerNode, 16*cluster.MiB, seed, workload.Explicit{Views: views})
	add("chaos", 4, 4, 1*cluster.MiB, 2, ior(16, 1.0/16))
	return out
}

// executedDomain is one file domain of a plan the engine ran.
type executedDomain struct {
	group, agg, node int
	lo, hi, buf      int64
}

// served flattens a /v1/plan response into the comparable form: group
// boundaries, domains, leaders.
func served(pr PlanResponse) (groups []explain.GroupInfo, doms []executedDomain, leaders []PlanLeader) {
	for gi, g := range pr.Groups {
		groups = append(groups, explain.GroupInfo{First: g.First, Last: g.Last, Nodes: g.Nodes, Bytes: g.Bytes})
		for _, d := range g.Domains {
			doms = append(doms, executedDomain{gi, d.Agg, d.Node, d.Lo, d.Hi, d.BufBytes})
		}
	}
	return groups, doms, pr.Leaders
}

// executedFromExplain reconstructs the plan a live mccio run executed
// from its decision audit: the groups event, each group's placements
// with later remerges stretching the taker's extent (a remerge hands
// the removed region to one leaf, placed or not; a placed taker keeps
// its aggregator over the grown domain), and the leader elections.
func executedFromExplain(events []explain.Event) (groups []explain.GroupInfo, doms []executedDomain, leaders []PlanLeader) {
	for _, e := range events {
		switch e.Kind {
		case explain.KindGroups:
			groups = e.Groups
		case explain.KindPlace:
			doms = append(doms, executedDomain{e.Group, e.Rank, e.Node, e.Lo, e.Hi, e.Buf})
		case explain.KindRemerge:
			for i := range doms {
				if d := &doms[i]; d.group == e.Group && e.TakerLo <= d.lo && d.hi <= e.TakerHi {
					d.lo, d.hi = e.TakerLo, e.TakerHi
				}
			}
		case explain.KindLeader:
			leaders = append(leaders, PlanLeader{Group: e.Group, Node: e.Node, Rank: e.Rank,
				MemAvail: e.Avail, Score: e.Score, RunnersUp: len(e.RunnersUp)})
		}
	}
	sort.SliceStable(doms, func(i, j int) bool {
		if doms[i].group != doms[j].group {
			return doms[i].group < doms[j].group
		}
		return doms[i].lo < doms[j].lo
	})
	sort.SliceStable(leaders, func(i, j int) bool { return leaders[i].Group < leaders[j].Group })
	return groups, doms, leaders
}

// executedFlat runs the strategy's own BuildPlan — the schedule its
// Plan hands iolib.Run — inside a world on the request's machine.
func executedFlat(t *testing.T, c *canonRequest) (groups []explain.GroupInfo, doms []executedDomain, leaders []PlanLeader) {
	t.Helper()
	engine := simtime.NewEngine()
	machine, err := cluster.New(c.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.NewWorld(engine, machine, len(c.Views))
	if err != nil {
		t.Fatal(err)
	}
	var plan *collio.Plan
	var el *twolayer.Election
	world.Start(func(cm *mpi.Comm) {
		var p *collio.Plan
		var e *twolayer.Election
		if c.Strategy == strategy.TwoLayer {
			p, e = twolayer.Strategy{CBBuffer: c.Cluster.MemPerNode}.BuildPlan(cm, c.Views[cm.Rank()])
		} else {
			p = collio.TwoPhase{CBBuffer: c.Cluster.MemPerNode}.BuildPlan(cm, c.Views[cm.Rank()])
		}
		if cm.Rank() == 0 {
			plan, el = p, e
		}
	})
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	g := explain.GroupInfo{Last: len(c.Views) - 1, Nodes: machine.NodeOfRank(len(c.Views)-1) + 1}
	for _, v := range c.Views {
		g.Bytes += v.TotalBytes()
	}
	for _, d := range plan.Domains {
		doms = append(doms, executedDomain{0, d.Agg, machine.NodeOfRank(d.Agg), d.Lo, d.Hi, d.BufBytes})
	}
	if el != nil && plan.LeaderOf != nil {
		for _, l := range el.Leaders {
			leaders = append(leaders, PlanLeader{Node: l.Node, Rank: l.Rank, MemAvail: l.Avail, Score: l.Score, RunnersUp: len(l.RunnersUp)})
		}
	}
	return []explain.GroupInfo{g}, doms, leaders
}

// plannerEvents is a decision log reduced to what the planner decided:
// planner kinds only, clock and op label cleared, stably ordered by
// group (the live run interleaves concurrent group roots).
func plannerEvents(events []explain.Event) []explain.Event {
	var out []explain.Event
	for _, e := range events {
		switch e.Kind {
		case explain.KindGroups, explain.KindTree, explain.KindBisect, explain.KindRemerge, explain.KindPlace, explain.KindLeader:
			e.T, e.Op = 0, ""
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// TestServedPlanIsExecutedPlan is the parity proof: for every golden
// workload and each plan-servable configuration, the plan /v1/plan
// serves (buildPlanJSON) has the groups, the per-domain (aggregator,
// node, extent, buffer) and the elected leaders of the plan the engine
// executes for the same request (the spec /v1/simulate runs, through
// bench.RunOnce). The executed plan is witnessed without a production
// hook: the decision audit of the live run for mccio, the strategy's
// own BuildPlan inside a world for the single-group strategies. For
// mccio the live run's planner event stream must also equal
// Inspect's, label aside.
func TestServedPlanIsExecutedPlan(t *testing.T) {
	for _, l := range parityLayouts(t) {
		for _, cfg := range planConfigs {
			name := l.name + "/" + cfg.name
			req := requestFor(l.mc, l.fc, l.wl, cfg)
			c, err := req.canonicalize()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			body, _, err := buildPlanJSON(c, c.Fingerprint(), nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var pr PlanResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantGroups, wantDoms, wantLeaders := served(pr)

			spec, err := simSpec(c, "write")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			live := explain.NewRecorder()
			spec.Explain = live
			res, err := bench.RunOnce(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Groups != len(pr.Groups) || res.Aggregators != pr.Aggregators ||
				res.Remerges != pr.Remerges || res.Leaders != len(pr.Leaders) {
				t.Errorf("%s: ran %d groups / %d aggregators / %d remerges / %d leaders, served %d / %d / %d / %d", name,
					res.Groups, res.Aggregators, res.Remerges, res.Leaders,
					len(pr.Groups), pr.Aggregators, pr.Remerges, len(pr.Leaders))
			}

			var groups []explain.GroupInfo
			var doms []executedDomain
			var leaders []PlanLeader
			if cfg.strategy == strategy.MCCIO {
				groups, doms, leaders = executedFromExplain(live.Events())
				machine, err := cluster.New(c.Cluster)
				if err != nil {
					t.Fatal(err)
				}
				offline := explain.NewRecorder()
				machine.SetExplain(offline)
				if _, err := (core.MCCIO{Opts: c.Options}).Inspect(machine, c.Views); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				a, b := plannerEvents(live.Events()), plannerEvents(offline.Events())
				if len(a) != len(b) {
					t.Errorf("%s: live run recorded %d planner events, Inspect %d", name, len(a), len(b))
				}
				for i := 0; i < len(a) && i < len(b); i++ {
					if !reflect.DeepEqual(a[i], b[i]) {
						t.Errorf("%s: planner event %d differs:\nlive    %+v\ninspect %+v", name, i, a[i], b[i])
						break
					}
				}
			} else {
				groups, doms, leaders = executedFlat(t, c)
			}
			if !reflect.DeepEqual(groups, wantGroups) {
				t.Errorf("%s: executed groups %+v, served %+v", name, groups, wantGroups)
			}
			if !reflect.DeepEqual(doms, wantDoms) {
				t.Errorf("%s: executed domains %+v, served %+v", name, doms, wantDoms)
			}
			if !reflect.DeepEqual(leaders, wantLeaders) {
				t.Errorf("%s: executed leaders %+v, served %+v", name, leaders, wantLeaders)
			}
		}
	}
}
