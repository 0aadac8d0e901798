// Package twolayer implements the two-layer collective I/O strategy of
// Kang et al., "Towards Scalable Collective I/O: Two-Layer Aggregation"
// (arXiv:1907.12656): collective exchange is split into an intra-node
// layer and an inter-node layer. Within each physical node a
// memory-elected leader funnels its mates' round pieces over the memory
// bus (writes) or fans received data out to them (reads); only leaders
// — which are also the file-domain aggregators — cross the network
// fabric and touch the file system. Compared to the flat two-phase
// exchange this turns many small NIC messages into one merged message
// per (node, domain) pair per round, and on reads ships node-shared
// file ranges across the fabric once instead of once per requesting
// rank.
//
// The strategy is the election (election.go) plus "aggregators =
// leaders": metadata gather, even-split geometry, buffer charging and
// the round engine are collio's (GatherMeta, EvenSplit, Plan.Run; the
// plan carries the elected LeaderOf/LeaderSucc maps). On a machine with
// one rank per node the election is trivial, the plan carries no leader
// map, and the trajectory is byte-identical to TwoPhase. The
// memory-conscious strategy composes with it per aggregation group via
// core.Options.TwoLayer.
package twolayer

import (
	"strconv"

	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Strategy is the two-layer collective: the baseline's even file-domain
// geometry (collio.EvenSplit) with the elected node leaders as the
// aggregators, so any trajectory difference from TwoPhase is
// attributable to the exchange layering and the leader choice.
type Strategy struct {
	// CBBuffer is the nominal collective buffer per aggregator, capped
	// by the leader node's available memory and floored at
	// collio.BufFloor — same sizing rule as the baseline.
	CBBuffer int64
}

// Name implements iolib.Collective.
func (tl Strategy) Name() string { return strategy.TwoLayer }

// PlanFromMeta builds the two-layer schedule from already-gathered
// metadata: per-rank extents, each rank's node, and each rank's node
// availability: the pure core of Plan, which the offline planner
// (adio.Inspect) runs too. The returned Election is the one the plan's
// leader map comes from, nil when the plan carries none.
func (tl Strategy) PlanFromMeta(exts []collio.Ext, nodeOf []int, avail []int64) (*collio.Plan, *Election) {
	span := make([]int64, len(nodeOf))
	for r := range span {
		if e := exts[r]; !e.Empty() {
			span[r] = e.Hi - e.Lo
		}
	}
	el := Elect(nodeOf, avail, span)
	aggs := make([]int, len(el.Leaders))
	for i, l := range el.Leaders {
		aggs[i] = l.Rank
	}
	plan := collio.EvenSplit(exts, aggs, avail, tl.CBBuffer, 0)
	// The two-layer exchange only pays off when nodes host several
	// ranks; with one rank per node the plan carries no leader map and
	// the engine runs the flat exchange — the two-phase trajectory
	// exactly. Nor does a plan without domains (nobody has data).
	if len(plan.Domains) == 0 || !el.MultiRank {
		return plan, nil
	}
	plan.LeaderOf, plan.LeaderSucc = el.LeaderOf, el.Succ
	return plan, el
}

// Explain records the election's decision trail — one KindLeader event
// per node with the winner, its Mem_avl and score, and the runners-up —
// stamped with the aggregation group the plan serves. It is the
// comm-free half of Audit, which the offline planners call directly.
// A nil election (nothing was elected) records nothing.
func (el *Election) Explain(rec *explain.Recorder, group int) {
	if el == nil || !rec.Enabled() {
		return
	}
	// One backing array for every node's runners-up.
	ups := make([]explain.Candidate, 0, len(el.LeaderOf)-len(el.Leaders))
	for _, l := range el.Leaders {
		first := len(ups)
		for _, ru := range l.RunnersUp {
			ups = append(ups, explain.Candidate{Rank: ru.Rank, Node: ru.Node, Avail: ru.Avail, Share: ru.Score})
		}
		rec.Record(explain.Event{
			Kind: explain.KindLeader, Group: group,
			Node: l.Node, Rank: l.Rank, Avail: l.Avail, Score: l.Score,
			RunnersUp: ups[first:len(ups):len(ups)],
		})
	}
}

// Audit records an election the plan's leader map comes from on the
// calling rank: obs instants, explain events, registry metrics and the
// leader count in m — all stamped with the aggregation group the plan
// serves (0 for the standalone strategy). Call it from exactly one rank
// per plan — the plan's root — so counts add up across ranks. A trivial
// election (one rank per node) leads nothing and is audited nowhere.
func Audit(c *mpi.Comm, op string, group int, el *Election, m *trace.Metrics) {
	t := c.Tracer()
	loc := obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: group, Round: -1}
	for _, l := range el.Leaders {
		t.Instant(obs.EventLeader, loc, l.Score, int64(l.Rank))
	}
	el.Explain(c.Explain(), group)
	reg := c.Metrics()
	reg.Counter("twolayer_plan_leaders_total",
		"Node leaders elected by the two-layer strategy.", "op", op).Add(float64(len(el.Leaders)))
	for _, l := range el.Leaders {
		reg.Gauge("twolayer_leader_mem_avail_bytes",
			"Elected leader node's available memory at election time.",
			"node", strconv.Itoa(l.Node)).Set(float64(l.Avail))
	}
	if m != nil {
		m.Leaders += len(el.Leaders)
	}
}

// Plan implements iolib.Collective: the two-layer schedule, one group
// on the caller's communicator, its election audited by the plan's
// root. The baseline's own metadata gather feeds it, so the degenerate
// case matches two-phase byte-for-byte on the wire. Plan and election
// are a pure function of that metadata, built once per call and shared
// by pointer (mpi.Shared).
func (tl Strategy) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, iolib.Schedule) {
	return c, collio.PlanOneGroup(c, m, func() *collio.Plan {
		exts, nodeOf, avail := collio.GatherMeta(c, view)
		type built struct {
			plan *collio.Plan
			el   *Election
		}
		b := mpi.Shared(c, func() built {
			plan, el := tl.PlanFromMeta(exts, nodeOf, avail)
			return built{plan, el}
		})
		if b.el != nil && c.Rank() == 0 {
			Audit(c, op, 0, b.el, m)
		}
		return b.plan
	})
}
