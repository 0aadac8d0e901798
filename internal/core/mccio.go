package core

import (
	"fmt"
	"strconv"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/trace"
	"repro/internal/twolayer"
)

// Options are MCCIO's tunables. The paper determines the first three
// empirically per platform (§3); DefaultOptions derives them from the
// machine and file-system configuration the way the paper's calibration
// procedure does, and the Disable* flags implement the ablations
// DESIGN.md calls out.
type Options struct {
	// Msgind is the per-aggregator message size that saturates one
	// storage stream: partition-tree leaves hold at most this much data.
	Msgind int64
	// Msggroup is the data volume per aggregation group; group division
	// closes a group at the next node boundary once its members hold
	// this much. <= 0 disables grouping (one global group).
	Msggroup int64
	// Nah is the maximum number of aggregators hosted per node.
	Nah int
	// Memmin is the minimum memory a node must have available to host
	// an aggregator; a domain whose candidates all fall short is
	// remerged with its neighbour.
	Memmin int64

	// NodeCombine enables the two-layer exchange: within each node,
	// ranks funnel shuffle pieces to a node leader over the memory bus
	// and only leaders cross the fabric — the intra-node/inter-node
	// coordination the paper's abstract describes. Leaders are the
	// lowest rank per node, with no succession line.
	NodeCombine bool

	// TwoLayer runs the full two-layer aggregation (Kang et al.,
	// arXiv:1907.12656) *within each aggregation group*: node leaders
	// are elected by available memory per group, intra-node pieces are
	// merged into file order, and read aggregators deduplicate
	// node-shared data. Supersedes NodeCombine when both are set.
	TwoLayer bool

	// Ablations.
	DisableGroups   bool // one global group regardless of Msggroup
	DisableMemAware bool // rotate hosts instead of max-available-memory
	DisableRemerge  bool // place on the best host even below Memmin
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	if o.Msgind <= 0 {
		return fmt.Errorf("core: Msgind must be positive, got %d", o.Msgind)
	}
	if o.Nah <= 0 {
		return fmt.Errorf("core: Nah must be positive, got %d", o.Nah)
	}
	if o.Memmin < 0 {
		return fmt.Errorf("core: negative Memmin %d", o.Memmin)
	}
	return nil
}

// DefaultOptions mirrors §3's calibration on the simulated platform:
//
//   - Msgind: the smallest request for which per-request overhead is
//     under ~5% of service time (latency amortisation), rounded up to
//     a stripe unit so domain boundaries align with OST boundaries.
//   - Nah: aggregator streams needed to fill one node's injection
//     bandwidth with Msgind-sized requests, bounded by cores.
//   - Msggroup: data in flight needed to saturate the shared
//     compute→storage pipe, spread over Nah-aggregator nodes.
//   - Memmin: an aggregator below an eighth of Msgind thrashes in
//     rounds; less than that and the domain should merge instead.
func DefaultOptions(mc cluster.Config, fc pfs.Config) Options {
	msgind := int64(20 * fc.OSTLatency * fc.OSTBW)
	if msgind < fc.StripeUnit {
		msgind = fc.StripeUnit
	} else {
		msgind = (msgind + fc.StripeUnit - 1) / fc.StripeUnit * fc.StripeUnit
	}
	nah := int(mc.NICBW / fc.OSTBW)
	if nah < 1 {
		nah = 1
	}
	if nah > mc.CoresPerNode {
		nah = mc.CoresPerNode
	}
	streams := mc.IONetBW / fc.OSTBW
	if streams < 1 {
		streams = 1
	}
	msggroup := int64(streams) * msgind * 4
	memmin := msgind / 8
	if memmin < 256<<10 {
		memmin = 256 << 10
	}
	return Options{Msgind: msgind, Msggroup: msggroup, Nah: nah, Memmin: memmin}
}

// MCCIO is the memory-conscious collective I/O strategy.
type MCCIO struct {
	Opts Options
}

// Name implements iolib.Collective.
func (mc MCCIO) Name() string { return "mccio" }

// rankMeta is the global metadata each rank contributes before group
// division: its extent, request volume, node, and the node's available
// aggregation memory.
type rankMeta struct {
	Ext       collio.Ext
	Bytes     int64
	Node      int
	NodeAvail int64
	NumSegs   int
}

const rankMetaBytes = 48

// segsMsg carries a rank's full (group-clipped) request list during the
// in-group view exchange.
type segsMsg struct {
	segs datatype.List
}

// WriteAll implements iolib.Collective.
func (mc MCCIO) WriteAll(f *iolib.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	mc.run("write", f, c, view, data, m)
}

// ReadAll implements iolib.Collective.
func (mc MCCIO) ReadAll(f *iolib.File, c *mpi.Comm, view datatype.List, dst buffer.Buf, m *trace.Metrics) {
	mc.run("read", f, c, view, dst, m)
}

func (mc MCCIO) run(op string, f *iolib.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	if err := mc.Opts.Validate(); err != nil {
		panic(err)
	}
	// The whole planning pipeline — metadata allgather, group division,
	// in-group view exchange, partition tree, placement, plan broadcast —
	// is one top-level plan span. Groups do not exist yet when it opens,
	// so its location carries no group.
	t := c.Tracer()
	psp := t.Begin(obs.PhasePlan, obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: -1, Round: -1})
	machine := c.World().Machine()
	lo, hi := view.Extent()
	meta := rankMeta{
		Ext:       collio.Ext{Lo: lo, Hi: hi},
		Bytes:     view.TotalBytes(),
		Node:      c.NodeOf(c.Rank()),
		NodeAvail: machine.Node(c.NodeOf(c.Rank())).Available(),
		NumSegs:   len(view),
	}
	raw := c.Allgather(meta, rankMetaBytes)
	metas := make([]rankMeta, len(raw))
	bytesPer := make([]int64, len(raw))
	for i, v := range raw {
		metas[i] = v.(rankMeta)
		bytesPer[i] = metas[i].Bytes
	}

	// Aggregation Group Division.
	msggroup := mc.Opts.Msggroup
	if mc.Opts.DisableGroups {
		msggroup = 0
	}
	nodeAvailOf := func(node int) int64 {
		for _, mt := range metas {
			if mt.Node == node {
				return mt.NodeAvail
			}
		}
		return 0
	}
	groups := DivideGroupsMemAware(func(r int) int { return metas[r].Node }, bytesPer, msggroup,
		nodeAvailOf, mc.Opts.Memmin)
	colors := ColorOf(groups, c.Size())
	if c.Rank() == 0 {
		var total int64
		for _, b := range bytesPer {
			total += b
		}
		t.Instant(obs.EventGroupDivision, obs.Loc{Rank: c.WorldRank(0), Node: c.NodeOf(0), Group: -1, Round: -1}, total, int64(len(groups)))
		auditGroups(machine.Explain(), op, total, msggroup, groups)
		// Planner metrics: one rank records the group count and the
		// memory-availability snapshot the whole plan worked from, so the
		// exposition reflects exactly what placement saw.
		reg := c.Metrics()
		reg.Counter("mccio_plan_groups_total",
			"Aggregation groups formed by group division.", "op", op).Add(float64(len(groups)))
		seen := make(map[int]bool)
		for _, mt := range metas {
			if seen[mt.Node] {
				continue
			}
			seen[mt.Node] = true
			reg.Gauge("mccio_plan_node_mem_avail_bytes",
				"Aggregation-memory headroom per node in the planner's consistent snapshot.",
				"node", strconv.Itoa(mt.Node)).Set(float64(mt.NodeAvail))
		}
	}
	m.SetGroups(len(groups))
	sub := c.Split(colors[c.Rank()], 0)
	g := groups[colors[c.Rank()]]

	// In-group exchange of full request lists: the group root learns
	// the group's aggregate pattern, computes coverage, partition tree,
	// remerges and placement once, and broadcasts the resulting plan —
	// the "let the aggregators know the entire aggregated I/O requests"
	// step, paid once per group instead of once per process.
	segsRaw := sub.Gather(0, segsMsg{segs: view}, int64(len(view))*16+8)
	var plan *collio.Plan
	remerges := 0
	if sub.Rank() == 0 {
		memberSegs := make([]datatype.List, sub.Size())
		nodeOfRank := make([]int, sub.Size())
		var all datatype.List
		for i, v := range segsRaw {
			memberSegs[i] = v.(segsMsg).segs
			nodeOfRank[i] = sub.NodeOf(i)
			all = append(all, memberSegs[i]...)
		}
		coverage := datatype.Normalize(all)

		// Exact writes: groups aggregate disjoint data that interleaves
		// in the file, so an extent RMW in one group could overwrite
		// another group's concurrent writes with stale bytes.
		plan = &collio.Plan{Exts: make([]collio.Ext, sub.Size()), ExactWrite: true, MemMin: mc.Opts.Memmin}
		if mc.Opts.NodeCombine {
			plan.LeaderOf = collio.LowestRankLeaders(nodeOfRank)
		}
		for i, segs := range memberSegs {
			l, h := segs.Extent()
			plan.Exts[i] = collio.Ext{Lo: l, Hi: h}
		}

		if coverage.TotalBytes() > 0 {
			// Aggregator Location works from the consistent availability
			// snapshot of the global allgather.
			nodeAvail := make(map[int]int64)
			for _, mt := range metas[g.First : g.Last+1] {
				nodeAvail[mt.Node] = mt.NodeAvail
			}
			// I/O Workload Partition: leaves hold <= msgind data, but
			// never more leaves than the group can field aggregators —
			// counting only slots the nodes can back with Memmin memory,
			// so the tree is born balanced for what placement can host
			// instead of being remerged into shape leaf by leaf.
			maxAggs := MemoryAssignableAggregators(nodeOfRank, nodeAvail, mc.Opts.Nah, mc.Opts.Memmin)
			msgind := mc.Opts.Msgind
			if need := (coverage.TotalBytes() + int64(maxAggs) - 1) / int64(maxAggs); need > msgind {
				msgind = need
			}
			rec := machine.Explain()
			tree := BuildTreeExplained(coverage, msgind, maxAggs, rec, colors[c.Rank()])
			auditTree(rec, colors[c.Rank()], tree, msgind, maxAggs)
			var pm trace.Metrics
			pl := newPlacer(tree, memberSegs, nodeOfRank, nodeAvail, mc.Opts, &pm, rec, colors[c.Rank()])
			placements := pl.Place()
			remerges = pm.Remerges
			reg := c.Metrics()
			reg.Counter("mccio_plan_remerges_total",
				"Workload-portion remerges performed during placement.", "op", op).Add(float64(remerges))
			reg.Counter("mccio_plan_placement_retries_total",
				"Aggregator placements that fell back past the data-owning hosts.", "op", op).Add(float64(pl.retries))

			gloc := obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: colors[c.Rank()], Round: -1}
			t.Instant(obs.EventPartition, gloc, coverage.TotalBytes(), int64(len(placements)))
			if remerges > 0 {
				t.Instant(obs.EventRemerge, gloc, 0, int64(remerges))
			}
			for _, pl := range placements {
				t.Instant(obs.EventPlace, gloc, pl.Buf, int64(pl.Agg))
			}

			for i, pl := range placements {
				domCov := coverage.Clip(pl.Leaf.Lo, pl.Leaf.Hi)
				plan.Domains = append(plan.Domains, collio.Domain{
					Agg: pl.Agg, Lo: pl.Leaf.Lo, Hi: pl.Leaf.Hi,
					BufBytes: pl.Buf,
					Windows:  collio.CoverageWindows(domCov, pl.Buf),
					// Failover identity: the partition tree's adjacent leaf
					// absorbs this domain if its aggregator is lost mid-run
					// (placements are in Leaves() order).
					Sibling:   tree.SiblingLeafIndex(i),
					NodeAvail: nodeAvail[nodeOfRank[pl.Agg]],
				})
			}
			plan.Rounds = maxRoundsOf(plan)

			// Two-layer composition: elect node leaders within the group
			// from the same consistent snapshot the placement used, so the
			// group's exchange runs intra-node funnels under the
			// memory-conscious domain layout.
			if mc.Opts.TwoLayer {
				spanOf := make([]int64, sub.Size())
				availOf := make([]int64, sub.Size())
				for r := range memberSegs {
					if l, h := memberSegs[r].Extent(); h > l {
						spanOf[r] = h - l
					}
					availOf[r] = nodeAvail[nodeOfRank[r]]
				}
				if el := twolayer.Elect(nodeOfRank, availOf, spanOf); el.MultiRank {
					plan.LeaderOf = el.LeaderOf
					plan.LeaderSucc = el.Succ
					twolayer.Audit(sub, op, colors[c.Rank()], el)
					m.AddLeaders(len(el.Leaders))
				}
			}
		}
	}
	plan = sub.Bcast(0, plan, planWireBytes(plan)).(*collio.Plan)
	// Stamp the group identity so engine spans carry it. All ranks of a
	// group share the plan pointer and the same color, so this is stable.
	plan.Group = colors[c.Rank()]
	psp.End()
	for i := 0; i < remerges; i++ {
		m.AddRemerge()
	}
	var myBuf int64
	for _, d := range plan.Domains {
		if d.Agg == sub.Rank() {
			myBuf = d.BufBytes
		}
	}

	// Charge my aggregation buffer, run the two-phase rounds in-group,
	// release.
	var node *cluster.Node
	if myBuf > 0 {
		node = machine.Node(c.NodeOf(c.Rank()))
		if !node.Alloc(myBuf) {
			node.MustAlloc(myBuf)
		}
	}
	vi := iolib.NewViewIndex(view)
	switch op {
	case "write":
		collio.ExecuteWrite(f, sub, vi, data, plan, m)
	case "read":
		collio.ExecuteRead(f, sub, vi, data, plan, m)
	}
	if node != nil {
		node.Free(myBuf)
	}
}

// planWireBytes estimates the broadcast size of a plan: per-domain
// header plus windows plus per-rank extents. nil (non-root) plans cost
// nothing; Bcast charges only the root's payload.
func planWireBytes(p *collio.Plan) int64 {
	if p == nil {
		return 0
	}
	n := int64(len(p.Exts)) * 16
	for _, d := range p.Domains {
		n += 40 + int64(len(d.Windows))*16
	}
	if p.LeaderOf != nil {
		// Elected leader map plus the node succession lines.
		n += int64(len(p.LeaderOf)) * 16
	}
	return n
}

// maxRoundsOf returns the maximum window count across domains.
func maxRoundsOf(p *collio.Plan) int {
	r := 0
	for _, d := range p.Domains {
		if len(d.Windows) > r {
			r = len(d.Windows)
		}
	}
	return r
}
