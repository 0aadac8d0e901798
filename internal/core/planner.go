package core

import (
	"slices"

	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/twolayer"
)

// GroupPlan is the planning outcome for one aggregation group: Plan,
// the schedule the live collective executes and the plan service
// serves, and the audit record it comes from — the coverage, the tree
// after remerging, each domain's placement, the node-leader election.
type GroupPlan struct {
	Group      Group
	Plan       *collio.Plan
	Coverage   datatype.List
	Tree       *Tree        // nil when the group requests no data
	Placements []*Placement // in file order; Placements[i] serves Tree.Leaves()[i]
	NodeOfRank []int        // group rank -> node
	Remerges   int
	// Retries counts placements that fell back past the data-owning
	// hosts.
	Retries int
	// Leaders is the group's node-leader election outcome when
	// Options.TwoLayer composes the two-layer exchange; nil otherwise
	// (including groups whose nodes all host a single rank).
	Leaders []twolayer.Leader

	election *twolayer.Election // Leaders' full outcome (leader map, succession)
}

// msggroup is the effective Msggroup group division works from (live and
// Inspect alike): 0, one group, under DisableGroups.
func (o Options) msggroup() int64 {
	if o.DisableGroups {
		return 0
	}
	return o.Msggroup
}

// groupAvail is one group's view of the per-node availability snapshot
// division used: the map planGroup works from.
func groupAvail(nodeOfRank []int, avail []int64) map[int]int64 {
	m := make(map[int]int64)
	for _, node := range nodeOfRank {
		m[node] = avail[node]
	}
	return m
}

// planGroup plans aggregation group gi: I/O Workload Partition,
// Workload Portion Remerging, Aggregator Location and, under
// Options.TwoLayer, the node-leader election. It is the only planner:
// a pure function of the members' request lists (indexed by group
// rank), their nodes, and the consistent per-node availability
// snapshot — no communicator, no machine — so the group root of the
// live collective and Inspect compute the same record and the same
// executable plan from the same inputs. Every bisection, remerge and
// placement is recorded in rec.
func (o Options) planGroup(gi int, g Group, memberSegs []datatype.List, nodeOfRank []int,
	nodeAvail map[int]int64, rec *explain.Recorder) GroupPlan {
	// Exact writes: groups aggregate disjoint data that interleaves in
	// the file, so an extent RMW in one group could overwrite another
	// group's concurrent writes with stale bytes.
	plan := &collio.Plan{Group: gi, Exts: make([]collio.Ext, len(memberSegs)), ExactWrite: true, MemMin: o.Memmin}
	for i, segs := range memberSegs {
		l, h := segs.Extent()
		plan.Exts[i] = collio.Ext{Lo: l, Hi: h}
	}
	gp := GroupPlan{Group: g, Plan: plan, Coverage: datatype.Normalize(slices.Concat(memberSegs...)), NodeOfRank: nodeOfRank}
	total := gp.Coverage.TotalBytes()
	if total == 0 {
		return gp
	}
	// Leaves hold <= Msgind data, but never more leaves than the group
	// can field aggregators — counting only slots the nodes can back
	// with Memmin memory, so the tree is born balanced for what
	// placement can host instead of being remerged into shape leaf by
	// leaf.
	maxAggs := MemoryAssignableAggregators(nodeOfRank, nodeAvail, o.Nah, o.Memmin)
	msgind := o.Msgind
	if need := (total + int64(maxAggs) - 1) / int64(maxAggs); need > msgind {
		msgind = need
	}
	gp.Tree = BuildTreeExplained(gp.Coverage, msgind, maxAggs, rec, gi)
	auditTree(rec, gi, gp.Tree, msgind, maxAggs)
	pl := newPlacer(gp.Tree, memberSegs, nodeOfRank, nodeAvail, o, rec, gi)
	gp.Placements = pl.Place()
	gp.Remerges, gp.Retries = pl.remerges, pl.retries
	plan.Domains = domains(gp.Coverage, gp.Placements, nodeOfRank, nodeAvail)
	plan.Tree = gp.Tree.remergeTree()

	// Two-layer composition: elect node leaders within the group from
	// the same snapshot the placement used, so the group's exchange
	// runs intra-node funnels under the memory-conscious domain layout.
	if o.TwoLayer {
		spanOf := make([]int64, len(memberSegs))
		availOf := make([]int64, len(memberSegs))
		for r, segs := range memberSegs {
			if l, h := segs.Extent(); h > l {
				spanOf[r] = h - l
			}
			availOf[r] = nodeAvail[nodeOfRank[r]]
		}
		if el := twolayer.Elect(nodeOfRank, availOf, spanOf); el.MultiRank {
			gp.Leaders, gp.election = el.Leaders, el
			plan.LeaderOf, plan.LeaderSucc = el.LeaderOf, el.Succ
		}
	}
	return gp
}

// domains lays out one file domain per placement, in file order: the
// placed leaf's extent and buffer, coverage windows sized by that
// buffer, and the host's snapshot availability arming the
// memory-exhaustion predicate. A domain holds ceil(data / buffer)
// windows, so one walk of the coverage fills one exact-size array.
func domains(cov datatype.List, pls []*Placement, nodeOfRank []int, nodeAvail map[int]int64) []collio.Domain {
	var n int64
	for _, pl := range pls {
		n += (pl.Leaf.DataBytes + pl.Buf - 1) / pl.Buf
	}
	windows := make([]datatype.Segment, 0, n)
	doms := make([]collio.Domain, len(pls))
	k := 0 // first coverage run reaching the current domain
	for i, pl := range pls {
		lo, hi := pl.Leaf.Lo, pl.Leaf.Hi
		for k < len(cov) && cov[k].End() <= lo {
			k++
		}
		start := len(windows)
		windows = collio.CoverageWindows(windows, cov[k:], lo, hi, pl.Buf)
		doms[i] = collio.Domain{Agg: pl.Agg, Lo: lo, Hi: hi, BufBytes: pl.Buf,
			Windows: windows[start:len(windows):len(windows)], NodeAvail: nodeAvail[nodeOfRank[pl.Agg]]}
	}
	return doms
}
