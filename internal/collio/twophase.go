package collio

import (
	"math"

	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/strategy"
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
	// AlignStripe, when positive, rounds file-domain boundaries down to
	// a multiple of this size — ROMIO's Lustre-aware domain alignment,
	// which keeps each stripe's lock traffic on a single aggregator.
	AlignStripe int64
}

// Name implements iolib.Collective.
func (tp TwoPhase) Name() string { return strategy.TwoPhase }

// gathered is GatherMeta's decode of one collective call, shared by
// every member.
type gathered struct {
	exts   []Ext
	nodeOf []int
	avail  []int64
	empty  bool
}

// GatherMeta is the planning prelude of the single-group strategies:
// every rank contributes its access extent and, unless nobody has
// data, its node's physically available memory, so every aggregator's
// effective buffer can be sized from one snapshot. The decode runs once
// per call and every rank gets the same slices (mpi.Shared), which
// nobody may write. nodeOf and avail are nil when nobody has data (the
// availability gather is skipped).
func GatherMeta(c *mpi.Comm, view datatype.List) (exts []Ext, nodeOf []int, avail []int64) {
	lo, hi := view.Extent()
	raw := c.Allgather(Ext{Lo: lo, Hi: hi}, extBytes)
	g := mpi.Shared(c, func() *gathered {
		g := &gathered{exts: make([]Ext, len(raw)), empty: true}
		for i, v := range raw {
			g.exts[i] = v.(Ext)
			g.empty = g.empty && g.exts[i].Empty()
		}
		return g
	})
	if g.empty { // nobody has data; skip the availability gather
		return g.exts, nil, nil
	}
	availRaw := c.Allgather(c.World().Machine().Node(c.NodeOf(c.Rank())).Available(), 8)
	g = mpi.Shared(c, func() *gathered {
		full := &gathered{exts: g.exts, nodeOf: make([]int, len(raw)), avail: make([]int64, len(raw))}
		for r := range full.nodeOf {
			full.nodeOf[r] = c.NodeOf(r)
			full.avail[r] = availRaw[r].(int64)
		}
		return full
	})
	return g.exts, g.nodeOf, g.avail
}

// PlanFromMeta builds the baseline schedule from already-gathered
// metadata: per-rank extents, each rank's node, and each rank's node
// availability. The pure core of Plan, which the offline planner
// (adio.Inspect) runs too.
func (tp TwoPhase) PlanFromMeta(exts []Ext, nodeOf []int, avail []int64) *Plan {
	// One aggregator per node: lowest comm rank on each node.
	var aggs []int
	lastNode := -1
	for r, n := range nodeOf {
		if n != lastNode {
			aggs = append(aggs, r)
			lastNode = n
		}
	}
	return EvenSplit(exts, aggs, avail, tp.CBBuffer, tp.AlignStripe)
}

// EvenSplit is the even file-domain geometry of two-phase collective
// I/O: the aggregate extent of exts split evenly by offset into one
// domain per aggregator in aggs (in order), each with a collective
// buffer of cb bytes capped by its node's availability (avail is
// indexed by comm rank) and floored at BufFloor, offset windows of that
// size, and the balanced remerge tree over the domains. align,
// when positive, rounds the domain size up to a multiple of it so
// boundaries fall on stripe edges (the last domain absorbs the
// remainder). Which ranks aggregate is the caller's policy — lowest
// rank per node for the baseline, elected leaders for two-layer. The
// plan carries no domains when nobody has data.
func EvenSplit(exts []Ext, aggs []int, avail []int64, cb, align int64) *Plan {
	plan := &Plan{Exts: exts}
	gLo, gHi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, e := range exts {
		if !e.Empty() {
			gLo, gHi = min(gLo, e.Lo), max(gHi, e.Hi)
		}
	}
	if gLo > gHi { // nobody has data
		return plan
	}
	fd := (gHi - gLo + int64(len(aggs)) - 1) / int64(len(aggs))
	if align > 0 {
		fd = (fd + align - 1) / align * align
	}
	for i, agg := range aggs {
		dLo := gLo + int64(i)*fd
		dHi := min(dLo+fd, gHi)
		if dHi <= dLo {
			break
		}
		buf := max(min(cb, avail[agg]), BufFloor)
		plan.Domains = append(plan.Domains, Domain{
			Agg: agg, Lo: dLo, Hi: dHi,
			BufBytes: buf,
			Windows:  OffsetWindows(dLo, dHi, buf),
		})
	}
	plan.Tree = balancedTree(len(plan.Domains))
	return plan
}

// Plan implements iolib.Collective: the baseline schedule, one group
// on the caller's communicator, a pure function of allgathered
// metadata built once per call and shared by pointer (mpi.Shared).
func (tp TwoPhase) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, iolib.Schedule) {
	return c, PlanOneGroup(c, m, func() *Plan {
		exts, nodeOf, avail := GatherMeta(c, view)
		return mpi.Shared(c, func() *Plan { return tp.PlanFromMeta(exts, nodeOf, avail) })
	})
}
