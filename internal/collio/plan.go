// Package collio implements two-phase collective I/O.
//
// It has two layers:
//
//   - The round engine (Plan.Run): given a Plan — a set of file
//     domains, each owned by one aggregator with a window schedule,
//     and optionally a leader map — it performs the upfront request
//     exchange, then the lock-step rounds of shuffle + file I/O that
//     define two-phase collective I/O. Writes and reads run one round
//     driver (engine.go); the leader map adds an intra-node
//     funnel / fan-out stage around the exchange (combine.go), and
//     without one every rank leads itself and the stage is idle.
//   - The TwoPhase strategy: ROMIO's classic plan — one aggregator per
//     node, the aggregate file extent split evenly by offset
//     (EvenSplit), a fixed collective buffer.
//
// The two-layer strategy (internal/twolayer) is the same even split
// over elected leaders; the memory-conscious strategy (internal/core)
// builds different plans — aggregation groups, partition-tree domains,
// memory-aware aggregator placement. Each strategy only plans: its
// iolib.Collective Plan method returns a *Plan as the iolib.Schedule,
// and iolib.Run calls Plan.Run, which charges the caller's aggregation
// buffer and runs the rounds on the same engine — how the paper
// positions MCCIO: an enhancement of two-phase rather than a
// replacement.
package collio

import (
	"fmt"
	"slices"

	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/trace"
)

// Ext is one rank's access extent, the coarse metadata ROMIO allgathers
// before building file domains.
type Ext struct {
	Lo, Hi int64 // half-open; Lo == Hi means no data
}

// extBytes is the charged wire size of an Ext.
const extBytes = 16

// Empty reports whether the extent covers nothing.
func (e Ext) Empty() bool { return e.Hi <= e.Lo }

// Domain is one aggregator's file domain and round schedule.
type Domain struct {
	Agg      int                // comm rank of the owning aggregator
	Lo, Hi   int64              // file extent of the domain (half-open)
	BufBytes int64              // aggregation buffer charged to the ledger
	Windows  []datatype.Segment // per-round file windows, in order

	// NodeAvail is the aggregator node's available memory in the
	// planner's consistent snapshot; with Plan.MemMin it drives the
	// memory-exhaustion failover predicate. 0 disables that predicate
	// for the domain.
	NodeAvail int64
}

// Plan is a complete collective schedule, computed once per collective
// call (or per group) and shared by pointer with every rank:
// constructors fill it and nobody writes it afterwards (what a runtime
// fault changes lives in each rank's overlay, failover.go).
type Plan struct {
	Domains []Domain // in file order
	Exts    []Ext    // per comm rank, from the strategy's allgather

	// Tree is the remerge tree over Domains: the partition tree the
	// planner left for the memory-conscious strategy, the balanced tree
	// of the even split otherwise. Runtime failover hands a lost domain
	// to its RemergeTree.Taker.
	Tree RemergeTree

	// Group is the aggregation-group index this plan executes for —
	// the trace/observability identity of the schedule. Single-group
	// strategies leave it 0; the memory-conscious strategy builds each
	// group's plan with its color.
	Group int

	// LeaderOf, when non-nil, splits the exchange into an intra-node and
	// an inter-node layer (see combine.go): LeaderOf[r] is the comm rank
	// leading r. Ranks funnel their round pieces to their leader over the
	// memory bus and only leaders cross the fabric, with the node's
	// segments merged into file order (writes) and node-shared ranges
	// shipped once (reads). Any election fills it — LowestRankLeaders,
	// the two-layer strategy's memory score. Length must equal the comm
	// size and every leader must lead itself. nil means every rank leads
	// only itself: the flat exchange.
	LeaderOf []int

	// LeaderSucc, when non-nil alongside LeaderOf, is each rank's
	// node-local succession line: the node's comm ranks in election
	// order (best score first). Leader failover walks it to hand a
	// dead leader's role to the next surviving rank on the same node.
	// Ranks of one node share the same backing slice.
	LeaderSucc [][]int

	// ExactWrite makes aggregators write each covered run as its own
	// request instead of read-modify-writing the window extent. A
	// single global collective may safely RMW its holes (nobody else
	// writes them during the operation), but disjoint aggregation
	// groups running concurrently interleave in the file — an extent
	// RMW in one group would resurrect stale bytes over another
	// group's fresh writes. Group-based strategies must set this.
	ExactWrite bool

	// MemMin, when positive, arms the memory-exhaustion failover
	// predicate: a domain whose node's snapshot availability minus the
	// injected fault pressure falls below MemMin loses its aggregator
	// mid-run (the planner's Mem_min constraint enforced dynamically).
	MemMin int64
}

// Validate checks the invariants the engine relies on: one domain per
// aggregator, windows inside the domain and strictly ordered, a remerge
// tree over the domains, a leader map whose leaders lead themselves,
// in-range succession lines.
func (p *Plan) Validate(commSize int) error {
	var buf [64]span // every collective validates its plan: stay off the heap for up to 32 domains
	if _, err := p.Tree.spans(len(p.Domains), buf[:]); err != nil {
		return err
	}
	aggs := make([]int, 0, 32) // sorted below: an aggregator must own one domain at most
	for i, d := range p.Domains {
		if d.Agg < 0 || d.Agg >= commSize {
			return fmt.Errorf("collio: domain %d aggregator %d out of comm size %d", i, d.Agg, commSize)
		}
		aggs = append(aggs, d.Agg)
		if d.Hi < d.Lo {
			return fmt.Errorf("collio: domain %d negative extent [%d,%d)", i, d.Lo, d.Hi)
		}
		if d.BufBytes <= 0 && len(d.Windows) > 0 {
			return fmt.Errorf("collio: domain %d has windows but no buffer", i)
		}
		prev := d.Lo
		for j, w := range d.Windows {
			if w.Len <= 0 || w.Off < prev || w.End() > d.Hi {
				return fmt.Errorf("collio: domain %d window %d %v escapes [%d,%d) or disordered", i, j, w, d.Lo, d.Hi)
			}
			prev = w.End()
		}
	}
	slices.Sort(aggs)
	for i := 1; i < len(aggs); i++ {
		if aggs[i] == aggs[i-1] {
			return fmt.Errorf("collio: aggregator %d owns two domains", aggs[i])
		}
	}
	if len(p.Exts) != commSize {
		return fmt.Errorf("collio: plan has %d extents for comm of %d", len(p.Exts), commSize)
	}
	if p.LeaderOf != nil {
		if len(p.LeaderOf) != commSize {
			return fmt.Errorf("collio: plan has %d leader entries for comm of %d", len(p.LeaderOf), commSize)
		}
		for r, l := range p.LeaderOf {
			if l < 0 || l >= commSize {
				return fmt.Errorf("collio: rank %d leader %d out of comm size %d", r, l, commSize)
			}
			if p.LeaderOf[l] != l {
				return fmt.Errorf("collio: rank %d follows %d, which follows %d instead of leading", r, l, p.LeaderOf[l])
			}
		}
	}
	if p.LeaderSucc != nil {
		if len(p.LeaderSucc) != commSize {
			return fmt.Errorf("collio: plan has %d succession lines for comm of %d", len(p.LeaderSucc), commSize)
		}
		for r, line := range p.LeaderSucc {
			for _, s := range line {
				if s < 0 || s >= commSize {
					return fmt.Errorf("collio: rank %d successor %d out of comm size %d", r, s, commSize)
				}
			}
		}
	}
	return nil
}

// domainOf returns the index of the domain rank aggregates, or -1.
func domainOf(doms []Domain, rank int) int {
	for i := range doms {
		if doms[i].Agg == rank {
			return i
		}
	}
	return -1
}

// Run implements iolib.Schedule, the tail every collective strategy
// shares once its plan exists: if the caller aggregates a domain,
// reserve that domain's buffer on its node's ledger; run the rounds in
// direction op ("write" or "read"); release. The planner sized the
// buffer within the node's snapshot availability, but another
// aggregator (or strategy layer) may have claimed memory meanwhile;
// MustAlloc keeps the overcommit visible in the high-water reports
// rather than failing. Every rank of c calls it with the identical plan.
func (p *Plan) Run(op string, f *pfs.File, c *mpi.Comm, view datatype.List, data buffer.Buf, m *trace.Metrics) {
	if di := domainOf(p.Domains, c.Rank()); di >= 0 {
		buf := p.Domains[di].BufBytes
		node := c.World().Machine().Node(c.NodeOf(c.Rank()))
		if !node.Alloc(buf) {
			node.MustAlloc(buf)
		}
		defer node.Free(buf)
	}
	execute(f, c, iolib.NewViewIndex(view), data, p, m, op)
}

// OffsetWindows slices [lo, hi) into consecutive windows of buf bytes —
// the baseline schedule: the aggregator marches through its domain by
// file offset, buf bytes of *extent* at a time.
func OffsetWindows(lo, hi, buf int64) []datatype.Segment {
	if buf <= 0 {
		panic(fmt.Sprintf("collio: window buffer %d", buf))
	}
	var out []datatype.Segment
	for off := lo; off < hi; off += buf {
		out = append(out, datatype.Segment{Off: off, Len: min(buf, hi-off)})
	}
	return out
}

// CoverageWindows appends to dst the windows of domain [lo, hi), each
// holding at most buf bytes of coverage (the sorted union of requests).
// Where coverage is sparse, offset windows would spin through empty
// rounds; coverage windows advance by data instead, and snap to
// coverage so none starts or ends in a hole. The walk stops at the
// first run past hi, so domains in file order walk coverage once.
func CoverageWindows(dst []datatype.Segment, coverage datatype.List, lo, hi, buf int64) []datatype.Segment {
	if buf <= 0 {
		panic(fmt.Sprintf("collio: window buffer %d", buf))
	}
	var cur datatype.Segment
	var curData int64
	for _, s := range coverage {
		if s.Off >= hi {
			break
		}
		s.Off, s.Len = max(s.Off, lo), min(s.End(), hi)-max(s.Off, lo)
		for s.Len > 0 {
			if curData == 0 {
				cur.Off = s.Off
			}
			take := min(buf-curData, s.Len)
			cur.Len = s.Off + take - cur.Off
			curData += take
			s.Off += take
			s.Len -= take
			if curData == buf {
				dst = append(dst, cur)
				curData = 0
			}
		}
	}
	if curData > 0 {
		dst = append(dst, cur)
	}
	return dst
}
