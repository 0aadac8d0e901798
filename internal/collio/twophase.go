package collio

import (
	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// BufFloor is the smallest effective aggregation buffer; even a
// memory-starved aggregator can stage this much.
const BufFloor = 64 << 10

// TwoPhase is the ROMIO-style baseline: one aggregator per physical
// node (the lowest rank on each node), the aggregate file extent split
// evenly by offset into one file domain per aggregator, and a fixed
// collective buffer of CBBuffer bytes per aggregator — ROMIO's
// cb_buffer_size. The aggregator set is chosen independently of the
// data distribution and of memory availability, exactly the properties
// the paper criticises at scale.
type TwoPhase struct {
	// CBBuffer is the nominal collective buffer per aggregator. The
	// effective buffer is capped by the aggregator node's physically
	// available memory (a buffer cannot exceed the RAM that exists) and
	// floored at BufFloor.
	CBBuffer int64
	// NodeCombine enables the intra/inter-node exchange for the
	// baseline too (lowest-rank leaders), so the mechanism can be
	// studied in isolation.
	NodeCombine bool
	// AlignStripe, when positive, rounds file-domain boundaries down to
	// a multiple of this size — ROMIO's Lustre-aware domain alignment,
	// which keeps each stripe's lock traffic on a single aggregator.
	AlignStripe int64
}

// Name implements iolib.Collective.
func (tp TwoPhase) Name() string { return "two-phase" }

// BuildPlan computes the baseline schedule. Every rank calls it inside
// the collective; the result is identical everywhere because it is a
// pure function of allgathered metadata.
func (tp TwoPhase) BuildPlan(c *mpi.Comm, view datatype.List) *Plan {
	lo, hi := view.Extent()
	raw := c.Allgather(Ext{Lo: lo, Hi: hi}, extBytes)
	exts := make([]Ext, len(raw))
	empty := true
	for i, v := range raw {
		exts[i] = v.(Ext)
		empty = empty && exts[i].Empty()
	}
	if empty { // nobody has data; skip the availability gather
		return &Plan{Exts: exts}
	}

	// Physically available memory per rank's node, so every rank can
	// size every aggregator's effective buffer identically.
	machine := c.World().Machine()
	availRaw := c.Allgather(machine.Node(c.NodeOf(c.Rank())).Available(), 8)
	nodeOf := make([]int, c.Size())
	avail := make([]int64, c.Size())
	for r := 0; r < c.Size(); r++ {
		nodeOf[r] = c.NodeOf(r)
		avail[r] = availRaw[r].(int64)
	}
	return tp.PlanFromMeta(exts, nodeOf, avail)
}

// PlanFromMeta builds the baseline schedule from already-gathered
// metadata: per-rank extents, each rank's node, and each rank's node
// availability. The pure core of BuildPlan, shared with the offline
// plan service.
func (tp TwoPhase) PlanFromMeta(exts []Ext, nodeOf []int, avail []int64) *Plan {
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
	plan := &Plan{Exts: exts}
	if first { // nobody has data
		return plan
	}
	if tp.NodeCombine {
		plan.LeaderOf = LowestRankLeaders(nodeOf)
	}

	// One aggregator per node: lowest comm rank on each node.
	var aggs []int
	lastNode := -1
	for r := 0; r < len(nodeOf); r++ {
		if n := nodeOf[r]; n != lastNode {
			aggs = append(aggs, r)
			lastNode = n
		}
	}

	fd := (gHi - gLo + int64(len(aggs)) - 1) / int64(len(aggs))
	if a := tp.AlignStripe; a > 0 {
		// Round the domain size up to a stripe multiple so boundaries
		// fall on stripe edges (the last domain absorbs the remainder).
		fd = (fd + a - 1) / a * a
	}
	for i, agg := range aggs {
		dLo := gLo + int64(i)*fd
		dHi := dLo + fd
		if dHi > gHi {
			dHi = gHi
		}
		if dHi <= dLo {
			break
		}
		buf := tp.CBBuffer
		if av := avail[agg]; buf > av {
			buf = av
		}
		if buf < BufFloor {
			buf = BufFloor
		}
		plan.Domains = append(plan.Domains, Domain{
			Agg: agg, Lo: dLo, Hi: dHi,
			BufBytes: buf,
			Windows:  OffsetWindows(dLo, dHi, buf),
		})
	}
	plan.Rounds = plan.maxRounds()
	// Pair consecutive domains for runtime failover: even absorbs odd and
	// vice versa; a trailing unpaired domain leans on its left neighbour.
	for i := range plan.Domains {
		s := i ^ 1
		if s >= len(plan.Domains) {
			s = i - 1
		}
		plan.Domains[i].Sibling = s
	}
	return plan
}

// myDomain returns the domain owned by this rank, or nil.
func myDomain(c *mpi.Comm, plan *Plan) *Domain {
	for i := range plan.Domains {
		if plan.Domains[i].Agg == c.Rank() {
			return &plan.Domains[i]
		}
	}
	return nil
}

// chargeBuffer reserves an aggregator's collective buffer on its node's
// ledger and returns a release func. The baseline sized the buffer
// within physical capacity, but another aggregator (or strategy layer)
// may have claimed memory meanwhile; MustAlloc keeps the overcommit
// visible in the high-water reports rather than failing.
func chargeBuffer(c *mpi.Comm, d *Domain) func() {
	node := c.World().Machine().Node(c.NodeOf(c.Rank()))
	if !node.Alloc(d.BufBytes) {
		node.MustAlloc(d.BufBytes)
	}
	return func() { node.Free(d.BufBytes) }
}

// WriteAll implements iolib.Collective.
func (tp TwoPhase) WriteAll(f *iolib.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	tp.run(ExecuteWrite, f, c, view, data, m)
}

// ReadAll implements iolib.Collective.
func (tp TwoPhase) ReadAll(f *iolib.File, c *mpi.Comm, view datatype.List, dst buffer.Buf, m *trace.Metrics) {
	tp.run(ExecuteRead, f, c, view, dst, m)
}

// run plans, charges the caller's collective buffer if it aggregates,
// and runs the rounds in the direction execute names.
func (tp TwoPhase) run(execute func(*iolib.File, *mpi.Comm, *iolib.ViewIndex, buffer.Buf, *Plan, *trace.Metrics),
	f *iolib.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	sp := c.Tracer().Begin(obs.PhasePlan, obs.Loc{Rank: c.WorldRank(c.Rank()), Node: c.NodeOf(c.Rank()), Group: 0, Round: -1})
	plan := tp.BuildPlan(c, view)
	sp.End()
	m.SetGroups(1)
	var release func()
	if d := myDomain(c, plan); d != nil {
		release = chargeBuffer(c, d)
	}
	execute(f, c, iolib.NewViewIndex(view), data, plan, m)
	if release != nil {
		release()
	}
}
