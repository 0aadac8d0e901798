package core

import (
	"strconv"

	"repro/internal/explain"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/twolayer"
)

// recordDivision records group division's outcome d on rank 0 of the
// call, writing every sink it reaches: the decision audit, the
// group-division instant, the group counter, the availability snapshot
// placement works from (so the exposition shows exactly what placement
// saw), and the group count in m.
func recordDivision(c *mpi.Comm, op string, msggroup int64, d *division, m *trace.Metrics) {
	auditGroups(c.Explain(), op, d.total, msggroup, d.groups)
	c.Tracer().Instant(obs.EventGroupDivision, obs.Loc{Rank: c.WorldRank(0), Node: c.NodeOf(0), Group: -1, Round: -1}, d.total, int64(len(d.groups)))
	reg := c.Metrics()
	reg.Counter("mccio_plan_groups_total",
		"Aggregation groups formed by group division.", "op", op).Add(float64(len(d.groups)))
	seen := make(map[int]bool)
	for r := 0; r < c.Size(); r++ {
		if node := c.NodeOf(r); !seen[node] {
			seen[node] = true
			reg.Gauge("mccio_plan_node_mem_avail_bytes",
				"Aggregation-memory headroom per node in the planner's consistent snapshot.",
				"node", strconv.Itoa(node)).Set(float64(d.avail[node]))
		}
	}
	if m != nil {
		m.Groups = len(d.groups)
	}
}

// recordGroupPlan records group gi's plan gp on the group's root c,
// writing every sink it reaches: the remerge and placement-retry
// counters, the partition, remerge and placement instants, the
// election's audit (twolayer.Audit), and the group's remerges in m. A
// group that requests no data has nothing to record.
func recordGroupPlan(c *mpi.Comm, op string, gi int, gp *GroupPlan, m *trace.Metrics) {
	if gp.Tree == nil {
		return
	}
	reg := c.Metrics()
	reg.Counter("mccio_plan_remerges_total",
		"Workload-portion remerges performed during placement.", "op", op).Add(float64(gp.Remerges))
	reg.Counter("mccio_plan_placement_retries_total",
		"Aggregator placements that fell back past the data-owning hosts.", "op", op).Add(float64(gp.Retries))
	t := c.Tracer()
	loc := obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: gi, Round: -1}
	t.Instant(obs.EventPartition, loc, gp.Coverage.TotalBytes(), int64(len(gp.Placements)))
	if gp.Remerges > 0 {
		t.Instant(obs.EventRemerge, loc, 0, int64(gp.Remerges))
	}
	for _, pl := range gp.Placements {
		t.Instant(obs.EventPlace, loc, pl.Buf, int64(pl.Agg))
	}
	if gp.election != nil {
		twolayer.Audit(c, op, gi, gp.election, m)
	}
	if m != nil {
		m.Remerges += gp.Remerges
	}
}

// auditGroups records the group-division outcome in the decision audit:
// the total requested bytes, the Msg_group threshold the division
// worked from, and every group's rank span, node count, and volume.
// No-op (and allocation-free) when the recorder is disabled.
func auditGroups(rec *explain.Recorder, op string, total, msggroup int64, groups []Group) {
	if !rec.Enabled() {
		return
	}
	gi := make([]explain.GroupInfo, len(groups))
	for i, g := range groups {
		gi[i] = explain.GroupInfo{First: g.First, Last: g.Last, Nodes: g.Nodes, Bytes: g.Bytes}
	}
	rec.Record(explain.Event{
		Kind: explain.KindGroups, Group: -1, Op: op,
		TotalBytes: total, Msggroup: msggroup, Groups: gi,
	})
}

// auditTree records one group's partition-tree build outcome: the root
// extent and covered bytes, the leaf count before any remerging, and
// the effective Msg_ind / aggregator bound the build worked from.
// Scalar-only, so it is safe to call unconditionally.
func auditTree(rec *explain.Recorder, group int, t *Tree, msgind int64, maxAggs int) {
	if !rec.Enabled() {
		return
	}
	root := t.Root()
	rec.Record(explain.Event{
		Kind: explain.KindTree, Group: group,
		Lo: root.Lo, Hi: root.Hi, Data: root.DataBytes,
		Leaves: len(t.Leaves()), Msgind: msgind, MaxAggs: maxAggs,
	})
}
