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
// The strategy reuses the collio round engine (the plan carries the
// elected LeaderOf/LeaderSucc maps) and mirrors the two-phase planner
// comm-for-comm: on a machine with one rank per node the election is
// trivial, the plan carries no leader map, and the trajectory is
// byte-identical to TwoPhase. The memory-conscious
// strategy composes with it per aggregation group via
// core.Options.TwoLayer.
package twolayer

import (
	"strconv"

	"repro/internal/buffer"
	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/explain"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Strategy is the two-layer collective. The fields mirror TwoPhase so
// the two are comparable knob-for-knob.
type Strategy struct {
	// CBBuffer is the nominal collective buffer per aggregator, capped
	// by the leader node's available memory and floored at
	// collio.BufFloor — same sizing rule as the baseline.
	CBBuffer int64
	// AlignStripe, when positive, rounds file-domain boundaries down to
	// a multiple of this size (ROMIO's Lustre-aware alignment).
	AlignStripe int64
}

// Name implements iolib.Collective.
func (tl Strategy) Name() string { return strategy.TwoLayer }

// BuildPlan computes the two-layer schedule: one aggregator per node —
// the elected leader — with the aggregate extent split evenly by
// offset, exactly the baseline's domain geometry so any trajectory
// difference is attributable to the exchange layering and the leader
// choice. Every rank calls it inside the collective; the result is
// identical everywhere (pure function of allgathered metadata). The
// returned Election is nil when nobody has data.
func (tl Strategy) BuildPlan(c *mpi.Comm, view datatype.List) (*collio.Plan, *Election) {
	lo, hi := view.Extent()
	raw := c.Allgather(collio.Ext{Lo: lo, Hi: hi}, 16)
	exts := make([]collio.Ext, len(raw))
	empty := true
	for i, v := range raw {
		exts[i] = v.(collio.Ext)
		empty = empty && exts[i].Empty()
	}
	if empty { // nobody has data; skip the availability gather
		return &collio.Plan{Exts: exts}, nil
	}

	// Same availability allgather as the baseline: one int64 per rank,
	// so the degenerate case matches two-phase byte-for-byte on the
	// wire. The snapshot feeds both buffer sizing and the election.
	machine := c.World().Machine()
	availRaw := c.Allgather(machine.Node(c.NodeOf(c.Rank())).Available(), 8)

	n := c.Size()
	nodeOf := make([]int, n)
	avail := make([]int64, n)
	for r := 0; r < n; r++ {
		nodeOf[r] = c.NodeOf(r)
		avail[r] = availRaw[r].(int64)
	}
	return tl.PlanFromMeta(exts, nodeOf, avail)
}

// PlanFromMeta builds the two-layer schedule from already-gathered
// metadata: per-rank extents, each rank's node, and each rank's node
// availability. The pure core of BuildPlan, shared with the offline
// plan service. The returned Election is nil when nobody has data.
func (tl Strategy) PlanFromMeta(exts []collio.Ext, nodeOf []int, avail []int64) (*collio.Plan, *Election) {
	gLo, gHi := int64(0), int64(0)
	first := true
	for _, e := range exts {
		if e.Empty() {
			continue
		}
		if first || e.Lo < gLo {
			gLo = e.Lo
		}
		if first || e.Hi > gHi {
			gHi = e.Hi
		}
		first = false
	}
	plan := &collio.Plan{Exts: exts}
	if first { // nobody has data
		return plan, nil
	}
	span := make([]int64, len(exts))
	for r, e := range exts {
		if !e.Empty() {
			span[r] = e.Hi - e.Lo
		}
	}
	el := Elect(nodeOf, avail, span)

	fd := (gHi - gLo + int64(len(el.Leaders)) - 1) / int64(len(el.Leaders))
	if a := tl.AlignStripe; a > 0 {
		fd = (fd + a - 1) / a * a
	}
	for i, l := range el.Leaders {
		dLo := gLo + int64(i)*fd
		dHi := dLo + fd
		if dHi > gHi {
			dHi = gHi
		}
		if dHi <= dLo {
			break
		}
		buf := tl.CBBuffer
		if buf > avail[l.Rank] {
			buf = avail[l.Rank]
		}
		if buf < collio.BufFloor {
			buf = collio.BufFloor
		}
		plan.Domains = append(plan.Domains, collio.Domain{
			Agg: l.Rank, Lo: dLo, Hi: dHi,
			BufBytes: buf,
			Windows:  collio.OffsetWindows(dLo, dHi, buf),
		})
	}
	plan.Rounds = 0
	for _, d := range plan.Domains {
		if len(d.Windows) > plan.Rounds {
			plan.Rounds = len(d.Windows)
		}
	}
	for i := range plan.Domains {
		s := i ^ 1
		if s >= len(plan.Domains) {
			s = i - 1
		}
		plan.Domains[i].Sibling = s
	}
	// The two-layer exchange only pays off when nodes host several
	// ranks; with one rank per node the plan carries no leader map and
	// the engine runs the flat exchange — the two-phase trajectory
	// exactly.
	if el.MultiRank {
		plan.LeaderOf = el.LeaderOf
		plan.LeaderSucc = el.Succ
	}
	return plan, el
}

// Audit records an election's decision trail on the calling rank: obs
// instants, explain events (winner, runners-up, Mem_avl), and registry
// metrics, all stamped with the aggregation group the plan serves (0
// for the standalone strategy). Call it from exactly one rank per plan
// — the plan's root — so counters aggregate correctly. The
// memory-conscious strategy calls it per group when composing
// (core.Options.TwoLayer).
func Audit(c *mpi.Comm, op string, group int, el *Election) {
	t := c.Tracer()
	loc := obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: group, Round: -1}
	rec := c.Explain()
	for _, l := range el.Leaders {
		t.Instant(obs.EventLeader, loc, l.Score, int64(l.Rank))
		if rec.Enabled() {
			var ups []explain.Candidate
			for _, ru := range l.RunnersUp {
				ups = append(ups, explain.Candidate{
					Rank: ru.Rank, Node: ru.Node, Avail: ru.Avail, Share: ru.Score,
				})
			}
			rec.Record(explain.Event{
				Kind: explain.KindLeader, Group: group,
				Node: l.Node, Rank: l.Rank, Avail: l.Avail, Score: l.Score,
				RunnersUp: ups,
			})
		}
	}
	reg := c.Metrics()
	reg.Counter("twolayer_plan_leaders_total",
		"Node leaders elected by the two-layer strategy.", "op", op).Add(float64(len(el.Leaders)))
	for _, l := range el.Leaders {
		reg.Gauge("twolayer_leader_mem_avail_bytes",
			"Elected leader node's available memory at election time.",
			"node", strconv.Itoa(l.Node)).Set(float64(l.Avail))
	}
}

// myDomain returns the domain owned by this rank, or nil.
func myDomain(c *mpi.Comm, plan *collio.Plan) *collio.Domain {
	for i := range plan.Domains {
		if plan.Domains[i].Agg == c.Rank() {
			return &plan.Domains[i]
		}
	}
	return nil
}

// chargeBuffer reserves the leader's collective buffer on its node's
// ledger (overcommit surfaces in high-water reports, like the
// baseline) and returns the release func.
func chargeBuffer(c *mpi.Comm, d *collio.Domain) func() {
	node := c.World().Machine().Node(c.NodeOf(c.Rank()))
	if !node.Alloc(d.BufBytes) {
		node.MustAlloc(d.BufBytes)
	}
	return func() { node.Free(d.BufBytes) }
}

func (tl Strategy) run(op string, f *iolib.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	sp := c.Tracer().Begin(obs.PhasePlan, obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: 0, Round: -1})
	plan, el := tl.BuildPlan(c, view)
	if el != nil && c.Rank() == 0 {
		Audit(c, op, 0, el)
		if el.MultiRank {
			// One recorder per plan: the sum across ranks (trace.Metrics
			// merge) is the total leader count. Zero in degenerate mode so
			// the row stays byte-identical to the baseline's.
			m.AddLeaders(len(el.Leaders))
		}
	}
	sp.End()
	m.SetGroups(1)
	vi := iolib.NewViewIndex(view)
	var release func()
	if d := myDomain(c, plan); d != nil {
		release = chargeBuffer(c, d)
	}
	switch op {
	case "write":
		collio.ExecuteWrite(f, c, vi, data, plan, m)
	case "read":
		collio.ExecuteRead(f, c, vi, data, plan, m)
	}
	if release != nil {
		release()
	}
}

// WriteAll implements iolib.Collective.
func (tl Strategy) WriteAll(f *iolib.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	tl.run("write", f, c, view, data, m)
}

// ReadAll implements iolib.Collective.
func (tl Strategy) ReadAll(f *iolib.File, c *mpi.Comm, view datatype.List, dst buffer.Buf, m *trace.Metrics) {
	tl.run("read", f, c, view, dst, m)
}
