package collio

import (
	"fmt"
	"slices"

	"repro/internal/datatype"
	"repro/internal/faults"
)

// Runtime failover. When fault injection kills an aggregator's node (or
// drains it below Plan.MemMin) mid-collective, the domain's unserved
// windows are absorbed by its Plan.Tree taker — the paper's
// workload-portion remerging (Fig 5a/5b) invoked dynamically, by the
// rule the planner remerges with — and the collective resumes from the
// failed round with no bytes lost or duplicated; a failed elected
// leader's role moves down its node's succession line. The Plan is never
// written: what a fault changes lives in the overlay each rank's
// collective owns.

// run is a stretch of absorbed windows: ws[k] plays at round at+k.
type run struct {
	at int
	ws []datatype.Segment
}

// overlay is a collective's current routing. It aliases the plan's
// slices until a fault changes something and holds private copies from
// then on, so a fault-free collective allocates nothing for it.
type overlay struct {
	// doms parallels Plan.Domains: Agg is the current owner, Lo/Hi the
	// current extent (a failed domain's collapses, its taker's grows),
	// Windows those of the domain's own that it still serves itself.
	doms     []Domain
	absorbed [][]run // per domain, what it took over, by round; nil until the first remerge
	leaderOf []int   // rank -> current leader; nil: every rank leads itself
	rounds   int
}

// newOverlay is the routing as planned; the collective runs as many
// rounds as the longest window schedule has.
func newOverlay(p *Plan) overlay {
	o := overlay{doms: p.Domains, leaderOf: p.LeaderOf}
	for di := range o.doms {
		o.rounds = max(o.rounds, o.end(di))
	}
	return o
}

// window returns the file window domain di serves in round r, if any: a
// finished domain has none, nor has a taker idling until what it
// absorbed is due.
func (o *overlay) window(di, r int) (w datatype.Segment, ok bool) {
	if ws := o.doms[di].Windows; r < len(ws) {
		return ws[r], true
	}
	if o.absorbed != nil {
		for _, ru := range o.absorbed[di] {
			if k := r - ru.at; k >= 0 && k < len(ru.ws) {
				return ru.ws[k], true
			}
		}
	}
	return w, false
}

// end returns the round after domain di's last window.
func (o *overlay) end(di int) int {
	if o.absorbed != nil {
		if rs := o.absorbed[di]; len(rs) > 0 {
			return rs[len(rs)-1].at + len(rs[len(rs)-1].ws)
		}
	}
	return len(o.doms[di].Windows)
}

// take removes what domain di has scheduled from round r on and returns
// it in round order. No round in that stretch is idle: a taker only
// idles before the check that hands it windows, and checks come in order.
func (o *overlay) take(di, r int) (moved []datatype.Segment) {
	if d := &o.doms[di]; r < len(d.Windows) {
		moved, d.Windows = slices.Clone(d.Windows[r:]), d.Windows[:r]
	}
	var kept []run
	for _, ru := range o.absorbed[di] {
		k := min(max(r-ru.at, 0), len(ru.ws))
		moved = append(moved, ru.ws[k:]...)
		if k > 0 {
			kept = append(kept, run{ru.at, ru.ws[:k]})
		}
	}
	o.absorbed[di] = kept
	return moved
}

// foKind is what a failover event answers.
type foKind uint8

const (
	foNodeDeath foKind = iota // the aggregator's node died
	foMemory                  // the aggregator's node fell below Plan.MemMin
	foLeader                  // an elected leader's rank failed
)

// FoEvent records one failover decision of a round's check.
type FoEvent struct {
	Kind  foKind
	Round int
	// Failed and Taker are domain indices, or comm ranks for foLeader.
	// Taker is -1 when nothing survives to take over: Failed keeps
	// serving — degraded, but no data is lost.
	Failed, Taker int
	Bytes         int64 // window extent a remerge moved
	By            int   // comm rank that records the event, fixed when it is decided
}

// failover is the round-r fault check: the one transition from a
// collective's routing to its routing after whatever failed by round r.
// It is a pure function of its arguments (nodeOf and worldOf place comm
// ranks where the schedule speaks of them), so every rank computes the
// identical result for itself. Non-empty events mean routing changed —
// the caller redoes its request exchange and topology — and passed
// validate.
func failover(sched *faults.Schedule, nodeOf, worldOf func(rank int) int, plan *Plan, prev overlay, r int) (overlay, []FoEvent) {
	down := func(d *Domain) (bool, foKind) {
		node := nodeOf(d.Agg)
		if sched.NodeFailedBy(node, r) {
			return true, foNodeDeath
		}
		return plan.MemMin > 0 && d.NodeAvail > 0 &&
			d.NodeAvail-sched.PressureBy(node, r) < plan.MemMin, foMemory
	}
	failed := func(rank int) bool { return sched.RankFailedBy(worldOf(rank), r) }
	o := prev
	var evs []FoEvent

	// Aggregators first: every domain whose aggregator is down and that
	// still has windows to serve moves into its taker, behind the taker's
	// own schedule and never before round r. Node death and pressure only
	// accumulate, so a domain once down is gone from the tree for good.
	gone := make([]bool, len(o.doms))
	var lost []int
	for i := range o.doms {
		gone[i], _ = down(&o.doms[i])
		if gone[i] && o.end(i) > r {
			lost = append(lost, i)
		}
	}
	if len(lost) > 0 {
		o.doms = slices.Clone(o.doms)
		o.absorbed = make([][]run, len(o.doms))
		copy(o.absorbed, prev.absorbed)
		for _, fi := range lost {
			f := &o.doms[fi]
			_, kind := down(f)
			ti, _ := plan.Tree.Taker(fi, gone)
			ev := FoEvent{Kind: kind, Round: r, Failed: fi, Taker: ti, By: f.Agg}
			if ti >= 0 {
				tk := &o.doms[ti]
				ev.By = tk.Agg
				moved := run{max(o.end(ti), r), o.take(fi, r)}
				for _, w := range moved.ws {
					ev.Bytes += w.Len
				}
				o.absorbed[ti] = append(slices.Clip(o.absorbed[ti]), moved)
				o.rounds = max(o.rounds, o.end(ti))
				// The taker's extent grows over the failed domain's, which
				// collapses so the re-exchange routes no requests to it. The
				// slot stays: domain indices (Plan.Tree, aggState) remain valid.
				tk.Lo, tk.Hi = min(tk.Lo, f.Lo), max(tk.Hi, f.Hi)
				f.Hi = f.Lo
			}
			evs = append(evs, ev)
		}
	}

	// Then leaders: a current leader (a fixed point of the map — a demoted
	// ex-leader's failure is old news) whose rank has failed hands its
	// role to the next survivor in its node's election order.
	for l := 0; l < len(o.leaderOf); l++ {
		if o.leaderOf[l] != l || !failed(l) {
			continue
		}
		taker, free := -1, -1 // first surviving successor; first that aggregates no domain
		if plan.LeaderSucc != nil {
			for _, s := range plan.LeaderSucc[l] {
				if s == l || failed(s) {
					continue
				}
				if taker < 0 {
					taker = s
				}
				if free < 0 && domainOf(o.doms, s) < 0 {
					free = s
				}
			}
		}
		if taker < 0 { // single-rank node, or every mate failed too
			evs = append(evs, FoEvent{Kind: foLeader, Round: r, Failed: l, Taker: -1, By: l})
			continue
		}
		evs = append(evs, FoEvent{Kind: foLeader, Round: r, Failed: l, Taker: taker, By: taker})
		o.leaderOf = slices.Clone(o.leaderOf)
		for x, lx := range o.leaderOf {
			if lx == l {
				o.leaderOf[x] = taker
			}
		}
		// A file domain the failed leader aggregated goes to a successor
		// that owns none (one domain per aggregator is an engine
		// invariant) — same node, so the charged buffer and NodeAvail
		// snapshot remain valid — or stays where it is.
		if di := domainOf(o.doms, l); di >= 0 && free >= 0 {
			o.doms = slices.Clone(o.doms)
			o.doms[di].Agg = free
		}
	}
	if len(evs) > 0 {
		if err := o.validate(plan, prev, r, evs, down, failed); err != nil {
			panic(err)
		}
	}
	return o, evs
}

// validate states what holds after the round-r transition prev -> o that
// decided evs: every window of the plan is scheduled exactly once, none
// invented; rounds before r are as they were (served stays served, so
// whatever moved plays at r or later); no aggregator owns two domains
// with windows left, and none of those is down, overlaps another or lies
// between a failed domain and its taker in file order; every leader
// leads itself and has not failed — unless an event says nothing
// survived.
func (o overlay) validate(plan *Plan, prev overlay, r int, evs []FoEvent, down func(*Domain) (bool, foKind), failed func(rank int) bool) error {
	stranded := func(leader bool, who int) bool {
		return slices.ContainsFunc(evs, func(ev FoEvent) bool {
			return ev.Taker < 0 && ev.Failed == who && (ev.Kind == foLeader) == leader
		})
	}
	left := make(map[datatype.Segment]int)
	for _, d := range plan.Domains {
		for _, w := range d.Windows {
			left[w]++
		}
	}
	owns := make(map[int]bool)
	for di := range o.doms {
		for q := 0; q < max(o.end(di), prev.end(di)); q++ {
			w, ok := o.window(di, q)
			if pw, pok := prev.window(di, q); q < r && (ok != pok || w != pw) {
				return fmt.Errorf("collio: failover at round %d rewrote domain %d's served round %d", r, di, q)
			}
			if ok {
				if left[w]--; left[w] < 0 {
					return fmt.Errorf("collio: failover at round %d schedules window %v twice or invents it", r, w)
				}
			}
		}
		if d := &o.doms[di]; o.end(di) > r {
			if owns[d.Agg] {
				return fmt.Errorf("collio: failover at round %d leaves aggregator %d two live domains", r, d.Agg)
			}
			owns[d.Agg] = true
			if dead, _ := down(d); dead && !stranded(false, di) {
				return fmt.Errorf("collio: failover at round %d leaves domain %d on its lost aggregator %d", r, di, d.Agg)
			}
			for _, ev := range evs {
				if ev.Kind == foLeader || ev.Taker < 0 || ev.Taker == di {
					continue
				}
				if f, t := prev.doms[ev.Failed], prev.doms[ev.Taker]; d.Lo >= min(f.Hi, t.Hi) && d.Hi <= max(f.Lo, t.Lo) {
					return fmt.Errorf("collio: failover at round %d hands domain %d to %d across live domain %d", r, ev.Failed, ev.Taker, di)
				}
			}
			for dj := range di {
				if e := &o.doms[dj]; o.end(dj) > r && d.Lo < e.Hi && e.Lo < d.Hi {
					return fmt.Errorf("collio: failover at round %d leaves live domains %d and %d overlapping", r, dj, di)
				}
			}
		}
	}
	for w, n := range left {
		if n > 0 {
			return fmt.Errorf("collio: failover at round %d lost window %v", r, w)
		}
	}
	for x, l := range o.leaderOf {
		if o.leaderOf[l] != l {
			return fmt.Errorf("collio: failover at round %d: rank %d follows %d, which does not lead", r, x, l)
		}
		if failed(l) && !stranded(true, l) {
			return fmt.Errorf("collio: failover at round %d: rank %d follows failed leader %d", r, x, l)
		}
	}
	return nil
}

// injectRoundFaults runs the per-round fault hooks after the entry
// barrier: ledger pressure application, then the failover check, each
// of whose events the one rank it names records. It returns true when
// routing changed and the caller must redo its request exchange and
// topology. Callers guard with sched != nil: the fault-free path stays
// allocation-free.
func (x *collective) injectRoundFaults(sched *faults.Schedule, r int) bool {
	c := x.c
	sched.ApplyPressure(r, func(node int, bytes int64) {
		c.World().Machine().Node(node).InjectPressure(bytes)
	})
	var evs []FoEvent
	x.ov, evs = failover(sched, c.NodeOf, c.WorldRank, x.plan, x.ov, r)
	loc := x.p.at(r)
	for _, ev := range evs {
		switch {
		case ev.By != c.Rank():
		case ev.Kind == foLeader && ev.Taker < 0:
			sched.RecordUnrecovered(loc, -1)
		case ev.Kind == foLeader:
			sched.RecordLeaderFailover(loc, c.WorldRank(ev.Failed), c.WorldRank(ev.Taker))
		case ev.Taker < 0:
			sched.RecordUnrecovered(loc, ev.Failed)
		default:
			x.p.remerge(sched, r, ev)
		}
	}
	return len(evs) > 0
}
