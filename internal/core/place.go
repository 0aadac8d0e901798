package core

import (
	"fmt"
	"sort"

	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/explain"
)

// Placement binds one file domain (a partition-tree leaf) to its
// aggregator and aggregation buffer.
type Placement struct {
	Leaf *TreeNode
	Agg  int   // group-comm rank of the aggregator
	Buf  int64 // aggregation buffer, charged on the aggregator's node
}

// hostState tracks one candidate node during placement.
type hostState struct {
	node      int
	avail     int64 // memory still uncommitted on this node
	aggs      int   // aggregators already placed here
	ranks     []int // group-comm ranks living on this node, ascending
	nextRank  int   // round-robin cursor into ranks
	rankIsAgg map[int]bool
}

// placer runs Aggregator Location (§3.3) with Workload Portion
// Remerging (§3.2) for one aggregation group.
type placer struct {
	tree       *Tree
	memberSegs []datatype.List // per group rank, clipped to the group
	nodeOfRank []int           // group rank -> physical node id
	hosts      map[int]*hostState
	hostOrder  []int // deterministic iteration order of hosts
	opts       Options
	effSlots   int // expected aggregators per node this group will field
	remerges   int // leaves remerged for lack of Memmin
	retries    int // placements that fell back past the data-owning hosts

	rec   *explain.Recorder // decision audit; nil disables
	group int               // aggregation-group index for audit events

	placed []*Placement // per built leaf of the tree
}

// newPlacer snapshots per-node availability. nodeAvail is the
// consistent view every rank obtained from the same allgather. rec,
// when enabled, receives one audit event per remerge (candidates,
// their Mem_avl, the threshold that failed, takeover variant) and per
// placement (winner, runners-up, headroom), stamped with group.
func newPlacer(tree *Tree, memberSegs []datatype.List, nodeOfRank []int, nodeAvail map[int]int64, opts Options, rec *explain.Recorder, group int) *placer {
	p := &placer{
		tree:       tree,
		memberSegs: memberSegs,
		nodeOfRank: nodeOfRank,
		hosts:      make(map[int]*hostState),
		opts:       opts,
		rec:        rec,
		group:      group,
		placed:     make([]*Placement, len(tree.leaves)),
	}
	for r, node := range nodeOfRank {
		h := p.hosts[node]
		if h == nil {
			h = &hostState{node: node, avail: nodeAvail[node], rankIsAgg: make(map[int]bool)}
			p.hosts[node] = h
			p.hostOrder = append(p.hostOrder, node)
		}
		h.ranks = append(h.ranks, r)
	}
	sort.Ints(p.hostOrder)
	return p
}

// candidates returns the hosts of processes whose requests fall inside
// the leaf's file domain and that can still take an aggregator, in
// deterministic node order.
func (p *placer) candidates(leaf *TreeNode) []*hostState {
	inDomain := make(map[int]bool)
	for r, segs := range p.memberSegs {
		if len(segs.Clip(leaf.Lo, leaf.Hi)) > 0 {
			inDomain[p.nodeOfRank[r]] = true
		}
	}
	var out []*hostState
	for _, node := range p.hostOrder {
		h := p.hosts[node]
		if inDomain[node] && h.aggs < p.opts.Nah {
			out = append(out, h)
		}
	}
	if len(out) > 0 {
		return out
	}
	p.retries++
	// Every data-owning host is saturated (or the leaf covers no
	// member's data after a remerge cascade): fall back to any host
	// with capacity so the domain is still served.
	for _, node := range p.hostOrder {
		if h := p.hosts[node]; h.aggs < p.opts.Nah {
			out = append(out, h)
		}
	}
	if len(out) > 0 {
		return out
	}
	// Truly saturated group: allow overflowing Nah rather than failing.
	for _, node := range p.hostOrder {
		out = append(out, p.hosts[node])
	}
	return out
}

// choose picks the aggregator host for built leaf i: the candidate with
// maximum available memory (§3.3), or — for the ablation that disables
// memory awareness — simple rotation over candidates.
func (p *placer) choose(i int, cands []*hostState) *hostState {
	if p.opts.DisableMemAware {
		// ROMIO-like obliviousness: rotate by the leaf's position among
		// the current ones.
		idx := 0
		for j := range i {
			if p.tree.live(j) {
				idx++
			}
		}
		return cands[idx%len(cands)]
	}
	best := cands[0]
	for _, h := range cands[1:] {
		if h.avail > best.avail {
			best = h
		}
	}
	return best
}

// Place assigns every current leaf an aggregator, remerging leaves
// whose candidates cannot offer Memmin. It returns placements in file
// order.
func (p *placer) Place() []*Placement {
	// How many aggregators will actually land per node: budgeting a
	// node's memory over Nah slots when only one or two domains will
	// ever live there wastes most of it.
	p.effSlots = min(max((len(p.tree.leaves)+len(p.hostOrder)-1)/len(p.hostOrder), 1), p.opts.Nah)
	// Each pass places a leaf or removes one.
	for i := p.nextUnplaced(); i >= 0; i = p.nextUnplaced() {
		leaf := p.tree.leaves[i]
		retriesBefore := p.retries
		cands := p.candidates(leaf)
		retried := p.retries > retriesBefore
		host := p.choose(i, cands)
		// An aggregator may claim only its share of the host's remaining
		// budget: the memory left divided by the aggregator slots left
		// (§3: "each node uses N_ah I/O aggregators with Msg_ind message
		// size"). Letting the first aggregator drain the node would
		// starve the other slots and cascade needless remerges.
		share := p.share(host)
		if share < p.opts.Memmin && !p.opts.DisableRemerge && len(p.tree.leaves)-p.remerges > 1 {
			// Not enough aggregation memory anywhere this domain's data
			// lives: merge it into the neighbouring domain and retry
			// (§3.2). The taker may already be placed — its domain simply
			// grew and its window schedule will stretch.
			ti, fig5a := p.tree.remove(i)
			variant := explain.VariantDFS
			if fig5a {
				variant = explain.VariantSibling
			}
			taker := p.tree.leaves[ti]
			p.remerges++
			if p.rec.Enabled() {
				p.rec.Record(explain.Event{
					Kind: explain.KindRemerge, Group: p.group,
					Lo: leaf.Lo, Hi: leaf.Hi, Data: leaf.DataBytes,
					Variant:   variant,
					Reason:    p.remergeReason(host, share, cands),
					Threshold: p.opts.Memmin, BestShare: share, Node: host.node,
					Candidates: p.auditCandidates(cands),
					TakerLo:    taker.Lo, TakerHi: taker.Hi,
				})
			}
			continue
		}
		buf := max(min(leaf.DataBytes, share), collio.BufFloor)
		agg := p.pickRank(host)
		availBefore := host.avail
		host.avail = max(host.avail-buf, 0)
		host.aggs++
		p.placed[i] = &Placement{Leaf: leaf, Agg: agg, Buf: buf}
		if p.rec.Enabled() {
			var runnersUp []explain.Candidate
			for _, h := range cands {
				if h != host {
					runnersUp = append(runnersUp, explain.Candidate{Node: h.node, Avail: h.avail, Share: p.share(h), Aggs: h.aggs})
				}
			}
			p.rec.Record(explain.Event{
				Kind: explain.KindPlace, Group: p.group,
				Lo: leaf.Lo, Hi: leaf.Hi, Data: leaf.DataBytes,
				Node: host.node, Rank: agg, Buf: buf,
				Avail: availBefore, Headroom: host.avail,
				Retry: retried, RunnersUp: runnersUp,
			})
		}
	}
	out := make([]*Placement, 0, len(p.placed)-p.remerges)
	for _, pl := range p.placed {
		if pl != nil {
			out = append(out, pl)
		}
	}
	return out
}

// auditCandidates snapshots the candidate hosts for a decision-audit
// event: each node's Mem_avl, the per-slot share it could offer, and
// its current aggregator load. Only called when the recorder is
// enabled.
func (p *placer) auditCandidates(cands []*hostState) []explain.Candidate {
	out := make([]explain.Candidate, len(cands))
	for i, h := range cands {
		out[i] = explain.Candidate{Node: h.node, Avail: h.avail, Share: p.share(h), Aggs: h.aggs}
	}
	return out
}

// remergeReason formats the human-readable cause of a remerge: the best
// candidate's offer against the Memmin threshold. Only called when the
// recorder is enabled.
func (p *placer) remergeReason(best *hostState, share int64, cands []*hostState) string {
	return fmt.Sprintf("no candidate can offer Memmin=%d bytes: best host node %d has Mem_avl=%d but can only offer a %d-byte share across its remaining aggregator slots (%d candidate host(s) considered)",
		p.opts.Memmin, best.node, best.avail, share, len(cands))
}

// share returns the memory an additional aggregator may claim on a
// host: the remaining budget split over the remaining expected slots.
func (p *placer) share(h *hostState) int64 {
	slots := p.effSlots - h.aggs
	if slots < 1 {
		slots = 1
	}
	return h.avail / int64(slots)
}

// nextUnplaced returns the first current leaf (file order) without a
// placement, as a built-leaf index, or -1.
func (p *placer) nextUnplaced() int {
	for i, pl := range p.placed {
		if pl == nil && p.tree.live(i) {
			return i
		}
	}
	return -1
}

// pickRank selects the aggregator process on a host: the next rank not
// yet aggregating, in round-robin order so N_ah aggregators spread over
// distinct cores.
func (p *placer) pickRank(h *hostState) int {
	for i := 0; i < len(h.ranks); i++ {
		r := h.ranks[(h.nextRank+i)%len(h.ranks)]
		if !h.rankIsAgg[r] {
			h.nextRank = (h.nextRank + i + 1) % len(h.ranks)
			h.rankIsAgg[r] = true
			return r
		}
	}
	// All ranks on the host already aggregate (possible only when the
	// engine later rejects duplicate domains — callers bound leaves by
	// assignable aggregators, so this is a defensive fallback).
	r := h.ranks[h.nextRank]
	h.nextRank = (h.nextRank + 1) % len(h.ranks)
	return r
}

// MemoryAssignableAggregators returns how many distinct aggregator
// processes a group can field: one per process, at most Nah per node,
// and at most avail/memmin per node, since anything beyond that could
// not be given Memmin bytes. At least one slot overall is always
// reported so a fully starved group still makes progress (with a
// floor-sized buffer).
func MemoryAssignableAggregators(nodeOfRank []int, nodeAvail map[int]int64, nah int, memmin int64) int {
	perNodeLimit := make(map[int]int)
	for node, avail := range nodeAvail {
		slots := nah
		if memmin > 0 {
			byMem := int(avail / memmin)
			if byMem < slots {
				slots = byMem
			}
		}
		perNodeLimit[node] = slots
	}
	perNode := make(map[int]int)
	total := 0
	for _, node := range nodeOfRank {
		if perNode[node] < perNodeLimit[node] {
			perNode[node]++
			total++
		}
	}
	if total < 1 {
		total = 1
	}
	return total
}
