package core

import (
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/twolayer"
)

// GroupPlan is the planning outcome for one aggregation group — the
// record the live collective executes and the inspection tools and the
// plan service expose: the coverage, the tree after remerging, each
// domain's placement, and the node-leader election when composed.
type GroupPlan struct {
	Group      Group
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
// live collective and Inspect compute the same record from the same
// inputs. Every bisection, remerge and placement is recorded in rec.
func (o Options) planGroup(gi int, g Group, memberSegs []datatype.List, nodeOfRank []int,
	nodeAvail map[int]int64, rec *explain.Recorder) GroupPlan {
	var all datatype.List
	for _, segs := range memberSegs {
		all = append(all, segs...)
	}
	gp := GroupPlan{Group: g, Coverage: datatype.Normalize(all), NodeOfRank: nodeOfRank}
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
		}
	}
	return gp
}
