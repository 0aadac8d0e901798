package pland

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
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
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/sweep"
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

// randomRequests are seeded plan requests over what the golden layouts
// hold fixed: node count, 1 or 4 ranks per node (so two-layer elections
// are trivial or contested), nominal memory and its σ, IOR or random
// extents, and the tunables Nah and Memmin (so mccio remerges), each
// under every plan-servable configuration.
func randomRequests(n int) []parityCase {
	r := stats.NewRNG(36)
	var out []parityCase
	for i := 0; i < n; i++ {
		nodes, cores := 2+r.Intn(4), []int{1, 4}[r.Intn(2)]
		ranks := nodes * cores
		mem := []int64{1, 2, 4, 16}[r.Intn(4)] * cluster.MiB
		seed := uint64(1 + r.Intn(1000))
		mc := bench.TestbedMachine(nodes, mem, r.Int63n(mem), seed)
		mc.CoresPerNode = cores
		fc := bench.TestbedFS(seed)
		block := (1 + r.Int63n(16)) << 16
		var wl workload.Workload = workload.IOR{Ranks: ranks, BlockSize: block, Segments: 1 + r.Intn(6), TransferSize: block}
		if r.Intn(2) == 0 {
			wl = workload.Random{Ranks: ranks, SegsPerRank: 1 + r.Intn(8), SegLen: (1 + r.Int63n(8)) << 14, FileSize: int64(ranks) << 20, Seed: seed}
		}
		nah, memmin := 1+r.Intn(cores), mem/int64(2+r.Intn(6))
		for _, cfg := range planConfigs {
			req := requestFor(mc, fc, wl, cfg)
			req.Options.Nah, req.Options.Memmin = nah, memmin
			out = append(out, parityCase{fmt.Sprintf("random%d/%dx%d/%s", i, nodes, cores, cfg.name), req})
		}
	}
	return out
}

// parityCase is one plan request the parity proof serves and executes.
type parityCase struct {
	name string
	req  PlanRequest
}

// executed runs the request's strategy — built as /v1/simulate builds
// it — through Collective.Plan in a world on the request's machine, and
// returns the plan each group root holds, indexed by group, with the
// decisions the live planner recorded.
func executed(t *testing.T, c *canonRequest) ([]*collio.Plan, []explain.Event) {
	t.Helper()
	spec, err := simSpec(c, "write")
	if err != nil {
		t.Fatal(err)
	}
	machine, err := cluster.New(c.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	rec := explain.NewRecorder()
	machine.SetExplain(rec)
	engine := simtime.NewEngine()
	world, err := mpi.NewWorld(engine, machine, len(c.Views))
	if err != nil {
		t.Fatal(err)
	}
	roots := map[int]*collio.Plan{}
	world.Start(func(cm *mpi.Comm) {
		sub, s := spec.Strategy.Plan("write", cm, c.Views[cm.Rank()], nil)
		if sub.Rank() == 0 {
			p := s.(*collio.Plan)
			roots[p.Group] = p
		}
	})
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	plans := make([]*collio.Plan, len(roots))
	for g, p := range roots {
		plans[g] = p
	}
	return plans, rec.Events()
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

// TestServedPlanIsExecutedPlan is the parity proof, over the golden
// workloads and seeded random layouts under each plan-servable
// configuration: the plans /v1/plan projects (inspect) are
// reflect.DeepEqual to the *collio.Plan every group root's
// Collective.Plan returns in a live world for the same request; the
// served body is their projection (aggregator, extent and buffer from
// the plan, host from the machine, covered data from the layout, one
// leader per rank that leads itself in the plan's leader map); and the
// served decision summary equals the live planner's, field for field
// (a planning-only world takes no memory samples). For mccio the live
// planner event stream must also equal the offline one, label aside.
func TestServedPlanIsExecutedPlan(t *testing.T) {
	var cases []parityCase
	for _, l := range parityLayouts(t) {
		for _, cfg := range planConfigs {
			cases = append(cases, parityCase{l.name + "/" + cfg.name, requestFor(l.mc, l.fc, l.wl, cfg)})
		}
	}
	cases = append(cases, randomRequests(12)...)
	var remerged, trivial bool
	for _, pc := range cases {
		name := pc.name
		c, err := pc.req.canonicalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		served, _, err := inspect(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, sum, err := buildPlanJSON(c, c.Fingerprint(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var pr PlanResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans, events := executed(t, c)
		machine, err := cluster.New(c.Cluster)
		if err != nil {
			t.Fatal(err)
		}

		if len(served.Plans) != len(plans) || len(pr.Groups) != len(plans) {
			t.Fatalf("%s: served %d (%d in the body) groups, executed %d", name, len(served.Plans), len(pr.Groups), len(plans))
		}
		var leaders []PlanLeader
		for gi, p := range plans {
			if !reflect.DeepEqual(served.Plans[gi].Plan, p) {
				t.Errorf("%s: group %d: served plan\n%+v\nexecuted\n%+v", name, gi, served.Plans[gi].Plan, p)
				continue
			}
			g := pr.Groups[gi]
			coverage := datatype.Normalize(slices.Concat(c.Views[g.First : g.Last+1]...))
			var want []PlanDomain
			for _, d := range p.Domains {
				want = append(want, PlanDomain{Agg: d.Agg, Node: machine.NodeOfRank(g.First + d.Agg), Lo: d.Lo, Hi: d.Hi,
					DataBytes: coverage.Clip(d.Lo, d.Hi).TotalBytes(), BufBytes: d.BufBytes})
			}
			if !reflect.DeepEqual(g.Domains, want) {
				t.Errorf("%s: group %d: served domains\n%+v\nprojected from the executed plan\n%+v", name, gi, g.Domains, want)
			}
			for r, l := range p.LeaderOf {
				if l == r {
					leaders = append(leaders, PlanLeader{Group: gi, Rank: r})
				}
			}
			remerged = remerged || g.Remerges > 0
		}
		trivial = trivial || (c.Cluster.CoresPerNode == 1 && (c.Strategy == strategy.TwoLayer || c.Options.TwoLayer))
		var got []PlanLeader
		for _, l := range pr.Leaders {
			got = append(got, PlanLeader{Group: l.Group, Rank: l.Rank})
		}
		if !reflect.DeepEqual(got, leaders) {
			t.Errorf("%s: served leaders %+v, the executed leader maps lead with %+v", name, got, leaders)
		}

		live := explain.Summarize(events)
		live.MemSamples = sum.MemSamples
		if live != sum {
			t.Errorf("%s: served decision summary %+v, live %+v", name, sum, live)
		}
		if c.Strategy == strategy.MCCIO {
			offline := explain.NewRecorder()
			machine.SetExplain(offline)
			if _, err := (core.MCCIO{Opts: c.Options}).Inspect(machine, c.Views); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			a, b := plannerEvents(events), plannerEvents(offline.Events())
			if len(a) != len(b) {
				t.Errorf("%s: live run recorded %d planner events, Inspect %d", name, len(a), len(b))
			}
			for i := 0; i < len(a) && i < len(b); i++ {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Errorf("%s: planner event %d differs:\nlive    %+v\ninspect %+v", name, i, a[i], b[i])
					break
				}
			}
		}
	}
	if !remerged || !trivial {
		t.Errorf("the layouts no longer reach a remerge (%v) or a trivial two-layer election (%v)", remerged, trivial)
	}
}
