package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/trace"
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

	// TwoLayer runs the full two-layer aggregation (Kang et al.,
	// arXiv:1907.12656) *within each aggregation group*: node leaders
	// are elected by available memory per group, intra-node pieces are
	// merged into file order, and read aggregators deduplicate
	// node-shared data — the intra-node/inter-node coordination the
	// paper's abstract describes.
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
func (mc MCCIO) Name() string { return strategy.MCCIO }

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

// Plan implements iolib.Collective: the caller's aggregation-group
// communicator and the plan its group shares.
func (mc MCCIO) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, iolib.Schedule) {
	if err := mc.Opts.Validate(); err != nil {
		panic(err)
	}
	// The whole planning pipeline — metadata allgather, group division,
	// in-group view exchange, partition tree, placement, plan broadcast —
	// is one top-level plan span. Groups do not exist yet when it opens,
	// so its location carries no group.
	psp := c.Tracer().Begin(obs.PhasePlan, obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: -1, Round: -1})

	// Aggregation Group Division: derived once for the whole call and
	// shared; rank 0 alone records the outcome.
	d := mc.divide(c, view)
	if c.Rank() == 0 {
		recordDivision(c, op, mc.Opts.msggroup(), d, m)
	}
	gi := d.colors[c.Rank()]
	sub := c.Split(gi, 0)

	// In-group exchange of full request lists: the group root learns
	// the group's aggregate pattern, plans the group once, and
	// broadcasts the resulting plan — the "let the aggregators know the
	// entire aggregated I/O requests" step, paid once per group instead
	// of once per process.
	segsRaw := sub.Gather(0, segsMsg{segs: view}, int64(len(view))*16+8)
	var plan *collio.Plan
	if sub.Rank() == 0 {
		memberSegs := make([]datatype.List, sub.Size())
		nodeOfRank := make([]int, sub.Size())
		for i, v := range segsRaw {
			memberSegs[i] = v.(segsMsg).segs
			nodeOfRank[i] = sub.NodeOf(i)
		}
		// Aggregator Location works from the snapshot group division used.
		gp := mc.Opts.planGroup(gi, d.groups[gi], memberSegs, nodeOfRank, groupAvail(nodeOfRank, d.avail), c.Explain())
		recordGroupPlan(sub, op, gi, &gp, m)
		plan = gp.Plan
	}
	plan = sub.Bcast(0, plan, planWireBytes(plan)).(*collio.Plan)
	psp.End()
	return sub, plan
}

// division is one collective call's group-division outcome, a pure
// function of the allgathered metas that every member shares.
type division struct {
	groups []Group
	colors []int   // comm rank -> group index
	avail  []int64 // node -> the availability its first rank reported
	total  int64   // requested bytes over all ranks
}

// divide allgathers every rank's metadata and divides the communicator
// into aggregation groups, deriving the division once for all members
// (mpi.Shared).
func (mc MCCIO) divide(c *mpi.Comm, view datatype.List) *division {
	machine := c.World().Machine()
	lo, hi := view.Extent()
	node := c.NodeOf(c.Rank())
	raw := c.Allgather(rankMeta{
		Ext: collio.Ext{Lo: lo, Hi: hi}, Bytes: view.TotalBytes(),
		Node: node, NodeAvail: machine.Node(node).Available(), NumSegs: len(view),
	}, rankMetaBytes)
	return mpi.Shared(c, func() *division {
		nodeOf := make([]int, len(raw))
		bytesPer := make([]int64, len(raw))
		d := &division{avail: make([]int64, machine.NumNodes())}
		// Backwards, so each node's entry ends as its first rank's report.
		for r := len(raw) - 1; r >= 0; r-- {
			mt := raw[r].(rankMeta)
			nodeOf[r], bytesPer[r], d.avail[mt.Node] = mt.Node, mt.Bytes, mt.NodeAvail
			d.total += mt.Bytes
		}
		d.groups = DivideGroupsMemAware(func(r int) int { return nodeOf[r] }, bytesPer, mc.Opts.msggroup(), d.avail, mc.Opts.Memmin)
		d.colors = ColorOf(d.groups, len(raw))
		return d
	})
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
