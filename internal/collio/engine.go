package collio

import (
	"cmp"
	"slices"

	"repro/internal/buffer"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/trace"
)

// segsVal is a metadata message carrying a segment list: in the upfront
// request exchange, a rank's view clipped to the domain of the
// aggregator it is sent to; inside a node, a rank's whole view.
type segsVal struct {
	segs datatype.List
}

// noSegs is the request list of a domain my view misses. Nobody writes it.
var noSegs = &segsVal{}

// shufflePiece is one round's payload between a leader and an
// aggregator (or, inside a node, a rank and its leader): the clipped
// segments plus their packed bytes.
type shufflePiece struct {
	segs datatype.List
	data buffer.Buf
}

func (s shufflePiece) wireBytes() int64 {
	return s.data.Len() + int64(len(s.segs))*extBytes
}

// domPiece is a write round's packed piece for domain di. A rank's
// pieces of one round, ascending by domain, are the bundle it funnels
// to its leader.
type domPiece struct {
	di int
	shufflePiece
}

// aggState is what an aggregator accumulates during one collective.
type aggState struct {
	di int // my domain's index in the plan
	// reqOrder holds each requesting rank's segments in my domain,
	// grouped by the rank's leader and ascending by rank within a group
	// (plain ascending rank when every rank leads itself).
	reqOrder []reqEntry
	coverage datatype.List // union of reqOrder
}

// reqEntry is one requesting rank's segments, in the compact form the
// per-round hot loops scan.
type reqEntry struct {
	src  int
	segs datatype.List
}

// chargeAssembly models the extra off-chip pass a rank pays to
// scatter/gather between a staging buffer and shuffle payloads — the
// memory-bandwidth pressure the paper is about.
func chargeAssembly(c *mpi.Comm, bytes int64) {
	if bytes <= 0 {
		return
	}
	node := c.World().Machine().Node(c.NodeOf(c.Rank()))
	node.MemBus.Transfer(c.Proc(), bytes)
}

// localityOf splits a payload size into (intra, inter) node bytes for
// traffic metrics.
func localityOf(c *mpi.Comm, a, b int, n int64) (int64, int64) {
	if c.NodeOf(a) == c.NodeOf(b) {
		return n, 0
	}
	return 0, n
}

// collective is one rank's state for one collective call: its routing
// (the overlay on the plan, and the aggregator state, leader topology
// and round schedule rebuilt from it when a failover changes it) and
// the scratch its rounds reuse — allocating per round dominated GC time
// at 1080 ranks. pieces backs the boxed *shufflePiece payloads: boxing
// the struct by value allocated on every send, a pointer into a reused
// array does not. The arena recycles every per-round clipped list; it
// resets at the round barrier, by which point the previous round's
// pieces (ours, our mates' and our peers') are all consumed. See
// DESIGN.md §14 for the ownership rules.
type collective struct {
	f     *pfs.File
	c     *mpi.Comm
	vi    *iolib.ViewIndex
	data  buffer.Buf // source of a write, destination of a read
	plan  *Plan      // read-only; what a fault changes is in ov
	ov    overlay    // current domains, owners, leaders and round count
	p     probe      // where every fact of the call is recorded
	write bool

	mine *aggState // nil unless this rank aggregates a domain
	topo topology
	rs   roundSchedule // who has data in which round, from route()

	view    segsVal // my view, as gatherViews sends it to my leader
	ex      *mpi.SparseExchange
	arena   datatype.Arena
	packed  []domPiece     // write: this round's packed pieces, ascending by domain (my bundle)
	pieces  []shufflePiece // this round's staged payloads (write leader, read aggregator)
	bundles [][]domPiece   // write leader: my bundle, then each mate's
	group   []shufflePiece // write leader: one domain's pieces, to merge
	fanned  []shufflePiece // read leader: this round's pieces for my mates
	offs    []int64
	bufs    []buffer.Buf
}

// perRound, set by tests, has every rank take each round's barrier alone.
var perRound bool

// execute is the round driver, shared by both directions and every
// leader topology. A round is: barrier, fault checks, then the sending
// side (write: pack, funnel to the node leader, leaders stage one
// merged piece per domain; read: aggregators read their window and
// stage one piece per node leader), the sparse exchange between
// leaders and aggregators, and the receiving side (write: aggregators
// assemble and write; read: leaders carve and fan out, ranks unpack).
// When every rank leads only itself the funnel and fan-out stages have
// nothing to do and the round is the classic flat two-phase exchange.
// It returns the finished collective, whose overlay tests inspect.
func execute(f *pfs.File, c *mpi.Comm, vi *iolib.ViewIndex, data buffer.Buf, plan *Plan, m *trace.Metrics, op string) *collective {
	// Every rank holds the same plan, so one of them checks it for all.
	if err := mpi.Shared(c, func() error { return plan.Validate(c.Size()) }); err != nil {
		panic(err)
	}
	write := op == "write"
	x := &collective{
		f: f, c: c, vi: vi, data: data, plan: plan, ov: newOverlay(plan), write: write,
		p:  newProbe(c, op, plan.Group, m),
		ex: c.SparseScratch(),
	}
	sched := c.Faults()
	ph := x.p.begin(obs.PhaseReqExchange, -1)
	x.route(0)
	x.p.end(ph, 0)
	if x.mine != nil {
		x.p.aggregator(plan.Domains[x.mine.di].BufBytes)
	}

	// With nothing attached that a round records or branches on, a rank
	// only waits at the barrier of a round in which neither it nor a
	// mate it leads has a schedule entry, so it stands through the
	// barriers of those it sits out in one park.
	stand := !perRound && sched == nil &&
		c.Tracer() == nil && c.Metrics() == nil && !c.Explain().Enabled()
	for r := 0; r < x.ov.rounds; r++ {
		// ROMIO's per-round alltoallv of counts synchronizes the whole
		// communicator: nobody starts round r+1 until the slowest
		// aggregator finishes round r. The barrier reproduces that
		// lock-step — and because strategies pass their own (possibly
		// group-local) communicator, subgroup strategies pay it only
		// across their group, which is the decoupling the paper's group
		// division buys.
		n := 1
		if stand { // the barriers up to my next round with data
			last := x.ov.rounds - 1
			n = min(x.rs.doms.first(r, last), x.rs.mates.first(r, last), x.rs.reqs.first(r, last)) - r + 1
		}
		ph = x.p.begin(obs.PhaseBarrier, r)
		c.Barriers(n)
		x.p.end(ph, 0)
		for ; n > 1; n-- { // a round sat out records that its window was served
			if _, ok := x.myWindow(r); ok {
				x.p.roundEnd(r)
			}
			r++
		}
		if x.mine != nil {
			x.p.memSample(r)
		}
		if sched != nil && x.injectRoundFaults(sched, r) {
			// A remerge or leadership handoff changed routing: redo the
			// request exchange and the topology, then resume this round.
			// Collective — every rank takes this branch for the same
			// rounds (the decision is pure).
			x.route(r)
		}
		x.ex.Reset()
		x.arena.Reset()

		var intra, inter int64
		if write {
			intra, inter = x.sendToAggregators(r)
			x.expectLeaders(r)
		} else {
			intra, inter = x.readWindow(r)
			x.expectAggregators(r)
		}

		ph = x.p.begin(obs.PhaseExchange, r)
		x.ex.Exchange()
		x.p.exchange(ph, intra, inter)
		// Retransmissions: a deterministic per-(group, round, rank) draw
		// says how many of this rank's sends were dropped, and the rank
		// sits out their capped exponential backoff in virtual time. Retry
		// exhaustion still delivers, so the collective always completes.
		if drops := sched.ExchangeDrops(plan.Group, r, x.p.loc.Rank); drops > 0 {
			pen := sched.RetryPenalty(drops)
			sched.RecordDrops(x.p.at(r), drops, pen)
			c.Proc().Sleep(pen)
		}

		if write {
			x.writeWindow(r)
		} else {
			x.deliver(r)
		}
	}
	return x
}

// route performs the upfront metadata exchange under the overlay's
// current domains and leader map: this rank's topology, its aggregator
// state (nil if it owns no domain), the mate views a leader schedules
// its funnel (write) or fan-out (read) by, and its round schedule from
// round from on.
func (x *collective) route(from int) {
	c, doms := x.c, x.ov.doms
	x.topo = newTopology(c.Rank(), x.ov.leaderOf)
	x.mine = nil
	if di := domainOf(doms, c.Rank()); di >= 0 {
		x.mine = &aggState{di: di}
	}
	mine := x.mine
	myExt := x.plan.Exts[c.Rank()]

	x.ex.Reset()
	meets := func(e Ext, d Domain) bool { return !e.Empty() && e.Lo < d.Hi && e.Hi > d.Lo }
	view := x.vi.View()
	met, lists := 0, 0
	for _, d := range doms {
		if meets(myExt, d) {
			met++
			if view.Intersects(d.Lo, d.Hi) {
				lists++
			}
		}
	}
	// The lists go by pointer into one array, not boxed one by one. An
	// extent is coarser than the view, so most may be empty: those share
	// noSegs, as free as boxing an empty list by value.
	x.ex.Grow(met)
	reqs := make([]segsVal, 0, lists)
	for _, d := range doms {
		if !meets(myExt, d) {
			continue
		}
		v := noSegs
		if view.Intersects(d.Lo, d.Hi) {
			reqs = append(reqs, segsVal{view.Clip(d.Lo, d.Hi)})
			v = &reqs[len(reqs)-1]
		}
		x.ex.Stage(d.Agg, v, int64(len(v.segs))*extBytes+8)
	}
	if mine != nil {
		for src, e := range x.plan.Exts {
			if meets(e, doms[mine.di]) {
				x.ex.Expect(src)
			}
		}
	}
	x.ex.Exchange()
	if mine != nil {
		// Most lists may be empty (an extent is coarser than the view), so
		// size reqOrder and their union by the lists that arrived.
		var lists, segs int
		x.ex.Received(func(_ int, v any) {
			if n := len(v.(*segsVal).segs); n > 0 {
				lists++
				segs += n
			}
		})
		all := make(datatype.List, 0, segs)
		mine.reqOrder = make([]reqEntry, 0, lists)
		x.ex.Received(func(src int, v any) {
			if segs := v.(*segsVal).segs; len(segs) > 0 {
				mine.reqOrder = append(mine.reqOrder, reqEntry{src: src, segs: segs})
				all = append(all, segs...)
			}
		})
		mine.coverage = datatype.Normalize(all)
		if x.topo.leaderOf != nil {
			slices.SortStableFunc(mine.reqOrder, func(a, b reqEntry) int {
				return cmp.Compare(x.topo.of(a.src), x.topo.of(b.src))
			})
		}
	}
	x.view.segs = x.vi.View()
	x.topo.gatherViews(c, &x.view)
	x.rs = newRoundSchedule(&x.ov, from, x.view.segs, x.topo.views, x.write, mine)
}

// sendToAggregators is the write round's sending side: pack my piece
// for every domain whose window my view meets this round, funnel the
// pieces to my leader, and — as a leader — stage one merged piece per
// domain the node has data for. It returns the staged payload split by
// locality.
func (x *collective) sendToAggregators(r int) (intra, inter int64) {
	c, tp := x.c, &x.topo
	var packed, wire int64
	ph := x.p.begin(obs.PhasePack, r)
	steps := x.rs.doms.at(r)
	x.packed = slices.Grow(x.packed[:0], len(steps)) // a piece per step
	for _, s := range steps {
		w, _ := x.ov.window(int(s.i), r)
		segs, data := x.vi.PackArena(&x.arena, x.data, w.Off, w.End())
		p := shufflePiece{segs: segs, data: data}
		x.packed = append(x.packed, domPiece{di: int(s.i), shufflePiece: p})
		packed += data.Len()
		wire += p.wireBytes()
	}
	x.p.end(ph, packed)

	if funnelHook != nil && !tp.leads() {
		funnelHook(x, r, tp.me, x.packed, false)
	}
	if !tp.leads() && len(steps) == 0 {
		return 0, 0 // no bundle: my leader expects one only in rounds I have pieces
	}
	if tp.solo() { // my pieces are my node's: ship them as packed
		for k := range x.packed {
			i, e := x.stageWrite(x.packed[k].di, &x.packed[k].shufflePiece)
			intra += i
			inter += e
		}
		return intra, inter
	}
	ph = x.p.begin(obs.PhaseIntra, r)
	moved := x.funnel(r, wire, packed)
	x.p.intra(ph, packed, moved)
	if !tp.leads() {
		return 0, 0
	}
	n := 0
	for _, b := range x.bundles {
		n += len(b)
	}
	x.pieces = slices.Grow(x.pieces[:0], n) // a merged piece per bundled domain at most
	// Leaders ship one piece per domain: the node's segments merged into
	// file order (adjacent runs from different mates coalesce), paying
	// the reorder pass on the node's memory bus when there was anything
	// to merge. Every bundle is ascending by domain, so the domains come
	// out in file order, each with its pieces in bundle order (mine
	// first).
	phantom := x.data.Phantom()
	for {
		di := -1
		for _, b := range x.bundles {
			if len(b) > 0 && (di < 0 || b[0].di < di) {
				di = b[0].di
			}
		}
		if di < 0 {
			break
		}
		x.group = x.group[:0]
		for k, b := range x.bundles {
			if len(b) > 0 && b[0].di == di {
				x.group = append(x.group, b[0].shufflePiece)
				x.bundles[k] = b[1:]
			}
		}
		merged := mergePieces(x.group, phantom)
		if len(x.group) > 1 {
			chargeAssembly(c, merged.data.Len())
		}
		x.pieces = append(x.pieces, merged)
		i, e := x.stageWrite(di, &x.pieces[len(x.pieces)-1])
		intra += i
		inter += e
	}
	return intra, inter
}

// stageWrite stages p, which must stay put until the exchange is over,
// for domain di's aggregator and returns its payload split by locality.
func (x *collective) stageWrite(di int, p *shufflePiece) (intra, inter int64) {
	agg := x.ov.doms[di].Agg
	x.ex.Stage(agg, p, p.wireBytes())
	return localityOf(x.c, x.c.Rank(), agg, p.data.Len())
}

// myWindow returns the window this rank aggregates in round r, if any.
func (x *collective) myWindow(r int) (w datatype.Segment, ok bool) {
	if x.mine == nil {
		return w, false
	}
	return x.ov.window(x.mine.di, r)
}

// expectLeaders declares the write round's receives: the leader of
// every rank whose requests intersect my current window.
func (x *collective) expectLeaders(r int) {
	for _, s := range x.rs.reqs.at(r) {
		x.ex.Expect(x.topo.of(x.mine.reqOrder[s.i].src))
	}
}

// writeWindow is the write round's receiving side: the aggregator
// assembles the received pieces and writes this window.
func (x *collective) writeWindow(r int) {
	w, ok := x.myWindow(r)
	if !ok {
		return
	}
	c, f, plan, mine := x.c, x.f, x.plan, x.mine
	cov := x.arena.Clip(mine.coverage, w.Off, w.End())
	if len(cov) > 0 {
		covLo, covHi := cov.Extent()
		region := buffer.New(covHi-covLo, x.data.Phantom())
		var reqs, ioBytes int64
		start := c.Now()
		if !plan.ExactWrite && len(cov.Holes()) > 0 {
			// Read-modify-write: fetch the extent so the bytes
			// between requests survive. Safe only for a single
			// global collective (see Plan.ExactWrite).
			ph := x.p.begin(obs.PhaseRMW, r)
			f.ReadAt(c.Proc(), c.WorldRank(c.Rank()), covLo, region)
			x.p.rmw(ph, covHi-covLo)
			reqs++
			ioBytes += covHi - covLo
		}
		ph := x.p.begin(obs.PhaseAssembly, r)
		x.ex.Received(func(_ int, v any) {
			piece := v.(*shufflePiece)
			iolib.ScatterIntoRegion(region, covLo, piece.segs, piece.data)
		})
		chargeAssembly(c, cov.TotalBytes())
		x.p.assembly(ph, cov.TotalBytes())
		ph = x.p.begin(obs.PhaseIO, r)
		if plan.ExactWrite {
			// One request per covered run, issued as a pipelined
			// batch: never touches bytes between requests, so
			// concurrent groups interleave safely.
			x.offs, x.bufs = x.offs[:0], x.bufs[:0]
			for _, run := range cov {
				x.offs = append(x.offs, run.Off)
				x.bufs = append(x.bufs, region.Slice(run.Off-covLo, run.Len))
				reqs++
				ioBytes += run.Len
			}
			f.WriteVec(c.Proc(), c.WorldRank(c.Rank()), x.offs, x.bufs)
		} else {
			f.WriteAt(c.Proc(), c.WorldRank(c.Rank()), covLo, region)
			reqs++
			ioBytes += covHi - covLo
		}
		x.p.io(ph, start, ioBytes, reqs)
	}
	x.p.roundEnd(r)
}

// readWindow is the read round's sending side: the aggregator reads its
// window's coverage and stages one piece per node leader — the union of
// the clips of the ranks it leads, so file ranges a node's mates share
// (halo reads, replicated blocks) cross the fabric once. It returns the
// staged payload split by locality.
func (x *collective) readWindow(r int) (intra, inter int64) {
	w, ok := x.myWindow(r)
	if !ok {
		return 0, 0
	}
	c, tp, mine := x.c, &x.topo, x.mine
	cov := x.arena.Clip(mine.coverage, w.Off, w.End())
	if len(cov) > 0 {
		covLo, covHi := cov.Extent()
		region := buffer.New(covHi-covLo, x.data.Phantom())
		// Read exactly the covered runs as one pipelined batch —
		// a sparse window (grouped strategies) would otherwise
		// fetch more hole bytes than data.
		x.offs, x.bufs = x.offs[:0], x.bufs[:0]
		for _, run := range cov {
			x.offs = append(x.offs, run.Off)
			x.bufs = append(x.bufs, region.Slice(run.Off-covLo, run.Len))
		}
		ph := x.p.begin(obs.PhaseIO, r)
		x.f.ReadVec(c.Proc(), c.WorldRank(c.Rank()), x.offs, x.bufs)
		x.p.io(ph, ph.t0, cov.TotalBytes(), int64(len(cov)))
		ph = x.p.begin(obs.PhaseAssembly, r)
		chargeAssembly(c, cov.TotalBytes())
		// The round's requesters are grouped by leader, as reqOrder is.
		steps := x.rs.reqs.at(r)
		x.pieces = slices.Grow(x.pieces[:0], len(steps)) // a piece per leader at most
		for k := 0; k < len(steps); {
			leader := tp.of(mine.reqOrder[steps[k].i].src)
			segs := x.arena.Clip(mine.reqOrder[steps[k].i].segs, w.Off, w.End())
			members := 1
			for k++; k < len(steps) && tp.of(mine.reqOrder[steps[k].i].src) == leader; k++ {
				clip := x.arena.Clip(mine.reqOrder[steps[k].i].segs, w.Off, w.End())
				segs = append(segs, clip...) // arena lists are capped: this copies
				members++
			}
			if members > 1 {
				segs = datatype.Normalize(segs)
			}
			x.pieces = append(x.pieces, shufflePiece{segs: segs, data: iolib.GatherFromRegion(region, covLo, segs)})
			p := &x.pieces[len(x.pieces)-1]
			x.ex.Stage(leader, p, p.wireBytes())
			i, e := localityOf(c, c.Rank(), leader, p.data.Len())
			intra += i
			inter += e
		}
		x.p.assembly(ph, cov.TotalBytes())
	}
	x.p.roundEnd(r)
	return intra, inter
}

// expectAggregators declares the read round's receives: as a leader, a
// piece from every domain whose window intersects my view or a mate's.
func (x *collective) expectAggregators(r int) {
	if !x.topo.leads() {
		return
	}
	for _, s := range x.rs.doms.at(r) {
		x.ex.Expect(x.ov.doms[s.i].Agg)
	}
}

// deliver is the read round's receiving side. A rank that leads only
// itself unpacks what the aggregators sent it; otherwise the pieces are
// node unions and travel the intra-node layer (see fanOut).
func (x *collective) deliver(r int) {
	if x.topo.solo() {
		ph := x.p.begin(obs.PhasePack, r)
		x.ex.Received(func(_ int, v any) {
			piece := v.(*shufflePiece)
			x.vi.Unpack(x.data, piece.segs, piece.data)
		})
		x.p.end(ph, 0)
		return
	}
	ph := x.p.begin(obs.PhaseIntra, r)
	moved := x.fanOut(r)
	x.p.intra(ph, 0, moved)
}
