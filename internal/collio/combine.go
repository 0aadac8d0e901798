package collio

import (
	"cmp"
	"slices"

	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
)

// The intra-node layer of the round driver. The paper's abstract
// promises that memory-conscious collective I/O "coordinates I/O
// accesses in intra-node and inter-node layer"; a plan's LeaderOf map
// is that split. Ranks funnel their round pieces to their leader over
// the memory bus and only leaders talk to aggregators across the
// fabric: many small NIC messages become one merged message per
// (leader, aggregator) pair per round, at the price of one extra
// intra-node hop. Who leads is an election policy (lowest rank per
// node, the two-layer strategy's memory score) the driver never sees;
// with no map every rank leads only itself and this layer is idle.
//
// Matching stays deterministic on both sides:
//   - every non-leader sends its leader exactly one bundle per round
//     (possibly empty), so leaders never guess; in a round a mate
//     stands through, the engine sends its empty bundle (execute);
//   - aggregators expect traffic from the *leader* of any rank that has
//     requests in the current window (computable from the request
//     exchange plus the leader map);
//   - on reads, leaders know what their mates expect because mates'
//     views are gathered once up front.

// topology is the calling rank's place in the collective's leader map.
// It is rebuilt after a leader failover changes the overlay's map.
type topology struct {
	me       int
	leaderOf []int           // the overlay's leader map; nil: every rank leads itself
	mates    []int           // the other ranks I lead, ascending
	views    []datatype.List // reads: my mates' full views, parallel to mates
}

// newTopology places rank me in leaderOf, which nobody writes: a leader
// failover hands the overlay a fresh map and route() rebuilds from it.
func newTopology(me int, leaderOf []int) topology {
	tp := topology{me: me, leaderOf: leaderOf}
	if tp.leads() {
		for r, l := range leaderOf {
			if l == me && r != me {
				tp.mates = append(tp.mates, r)
			}
		}
	}
	return tp
}

// of returns the leader of comm rank r.
func (tp *topology) of(r int) int {
	if tp.leaderOf == nil {
		return r
	}
	return tp.leaderOf[r]
}

// leads reports whether this rank is a leader (of itself at least).
func (tp *topology) leads() bool { return tp.of(tp.me) == tp.me }

// solo reports whether this rank leads only itself: it has no intra-node
// stage to run and exchanges with aggregators directly.
func (tp *topology) solo() bool { return tp.leads() && len(tp.mates) == 0 }

// LowestRankLeaders is the simplest leader election: every rank follows
// the lowest comm rank on its node. It returns nil — no intra-node layer
// — when no node hosts two ranks.
func LowestRankLeaders(nodeOf []int) []int {
	leaderOf := make([]int, len(nodeOf))
	first := make(map[int]int, len(nodeOf))
	shared := false
	for r, node := range nodeOf {
		l, ok := first[node]
		if !ok {
			first[node], l = r, r
		}
		shared = shared || ok
		leaderOf[r] = l
	}
	if !shared {
		return nil
	}
	return leaderOf
}

// User-tag space for the intra-node sends.
const (
	viewTag   = 1000
	bundleTag = 1001
	pieceTag  = 1002
)

// gatherViews is the intra-node layer of the upfront request exchange
// (read path): every non-leader sends its view to its leader, charged
// at segment-metadata size, so leaders can compute mate expectations
// and carve mate pieces.
func (tp *topology) gatherViews(c *mpi.Comm, vi *iolib.ViewIndex) {
	if !tp.leads() {
		view := vi.View()
		c.SendVal(tp.of(tp.me), viewTag, segsVal{view}, int64(len(view))*extBytes+8)
		return
	}
	tp.views = make([]datatype.List, len(tp.mates))
	for i, mate := range tp.mates {
		tp.views[i] = c.RecvVal(mate, viewTag).(segsVal).segs
	}
}

// mergePieces joins a node's pieces for one domain into a single piece:
// the segments merge-sorted into file order with adjacent runs
// coalesced and the payload reordered to match, so the combined wire
// message carries one run's metadata where ranks on a node wrote
// interleaved neighbours — Kang et al.'s node-level request merging.
// Disjointness across ranks (the collective-write contract) makes the
// sort a pure reordering. A single piece is returned as is.
func mergePieces(pieces []shufflePiece, phantom bool) shufflePiece {
	if len(pieces) == 1 {
		return pieces[0]
	}
	type segSrc struct {
		seg   datatype.Segment
		piece int
		pos   int64 // byte offset of seg's payload inside its piece
	}
	var srcs []segSrc
	var total int64
	for pi := range pieces {
		var pos int64
		for _, s := range pieces[pi].segs {
			srcs = append(srcs, segSrc{seg: s, piece: pi, pos: pos})
			pos += s.Len
		}
		total += pieces[pi].data.Len()
	}
	slices.SortFunc(srcs, func(a, b segSrc) int { return cmp.Compare(a.seg.Off, b.seg.Off) })
	data := buffer.New(total, phantom)
	var segs datatype.List
	var pos int64
	for _, s := range srcs {
		buffer.Copy(data.Slice(pos, s.seg.Len), pieces[s.piece].data.Slice(s.pos, s.seg.Len))
		pos += s.seg.Len
		if n := len(segs); n > 0 && segs[n-1].End() == s.seg.Off {
			segs[n-1].Len += s.seg.Len
		} else {
			segs = append(segs, s.seg)
		}
	}
	return shufflePiece{segs: segs, data: data}
}

// noBundle is the bundle of a round I sit out: x.packed may still hold
// my last active round's pieces. Nobody writes it.
var noBundle = &[]domPiece{}

// funnel is the write round's intra-node stage: a non-leader hands its
// bundle — this round's packed pieces (wire bytes on the bus, packed
// payload bytes of them) — to its leader; a leader collects the node's
// bundles in x.bundles, its own first. It returns the payload bytes
// this rank sent.
func (x *collective) funnel(wire, packed int64) (moved int64) {
	c, tp := x.c, &x.topo
	if tp.leads() {
		x.bundles = append(x.bundles[:0], x.packed)
		for _, mate := range tp.mates {
			x.bundles = append(x.bundles, *c.RecvVal(mate, bundleTag).(*[]domPiece))
		}
		return 0
	}
	// A pointer to the field, not the slice: boxing the header would
	// allocate every round, and the leader reads it within this round,
	// before the lock-step barrier lets x.packed be refilled.
	c.SendVal(tp.of(tp.me), bundleTag, &x.packed, 8+wire)
	return packed
}

// domainAt returns the domain of round r's schedule that aggregator agg
// serves: expectAggregators expected a piece from those aggregators only.
func (x *collective) domainAt(r, agg int) int {
	steps := x.rs.doms.at(r)
	k := slices.IndexFunc(steps, func(s step) bool { return x.ov.doms[s.i].Agg == agg })
	return int(steps[k].i)
}

// fanOut is the read round's intra-node stage. Each piece a leader
// received is one aggregator's window clipped to the union of the
// node's views; the leader re-clips every view against that window to
// carve the per-rank pieces — exactly what the aggregator would have
// sent each rank directly — paying the scatter/gather pass on the
// node's memory bus. Every mate knows how many pieces to expect: one
// per domain whose window its view meets this round. It returns the
// payload bytes this rank sent its mates.
func (x *collective) fanOut(r int) (moved int64) {
	c, tp := x.c, &x.topo
	if !tp.leads() {
		for range x.rs.doms.at(r) {
			piece := c.RecvVal(tp.of(tp.me), pieceTag).(*shufflePiece)
			x.vi.Unpack(x.data, piece.segs, piece.data)
		}
		return 0
	}
	x.fanned = x.fanned[:0]
	x.ex.Received(func(agg int, v any) {
		piece := v.(*shufflePiece)
		w, _ := x.ov.window(x.domainAt(r, agg), r)
		lo, hi := piece.segs.Extent()
		region := buffer.New(hi-lo, x.data.Phantom())
		iolib.ScatterIntoRegion(region, lo, piece.segs, piece.data)
		chargeAssembly(c, piece.data.Len())
		if clip := x.arena.Clip(x.vi.View(), w.Off, w.End()); len(clip) > 0 {
			x.vi.Unpack(x.data, clip, iolib.GatherFromRegion(region, lo, clip))
		}
		for i, mate := range tp.mates {
			clip := x.arena.Clip(tp.views[i], w.Off, w.End())
			if len(clip) == 0 {
				continue
			}
			// Boxed by pointer into a reused slice, as funnel's bundles
			// are. A mate reads its pieces within this round; when the
			// append moves the array, what was sent stays in the old one.
			x.fanned = append(x.fanned, shufflePiece{segs: clip, data: iolib.GatherFromRegion(region, lo, clip)})
			mp := &x.fanned[len(x.fanned)-1]
			c.SendVal(mate, pieceTag, mp, mp.wireBytes())
			moved += mp.data.Len()
		}
	})
	return moved
}
