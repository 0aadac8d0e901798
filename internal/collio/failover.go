package collio

import (
	"repro/internal/datatype"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Runtime failover-by-remerge: when fault injection kills an
// aggregator's node (or drains it below Plan.MemMin) mid-collective,
// the domain's remaining window schedule is absorbed by its sibling
// domain — the paper's workload-portion remerging (Fig 5a/5b) invoked
// dynamically — and the collective resumes from the failed round with
// no bytes lost or duplicated: the failed domain's already-served
// windows stay served, only the unserved remainder moves.
//
// The mutated plan intentionally violates Validate's window ordering
// (absorbed windows land behind the survivor's own schedule, padded
// with inert zero-length windows); Validate runs only on the pristine
// plan, and every engine site treats an empty window as a no-op.

// FoEvent records one failover decision of a round's check.
type FoEvent struct {
	Round         int
	Failed        int  // domain index whose aggregator was lost
	Taker         int  // domain index that absorbed it; -1 when no survivor existed
	ByNodeFailure bool // node death (vs memory exhaustion)
	Bytes         int64
}

// maybeFailover runs the round-r failover check, mutating the plan when
// a domain's aggregator is lost. It returns the events of the check —
// non-empty means the plan changed and callers must redo the request
// exchange. The decision is a pure function of (schedule, plan, round),
// so every rank — whether it shares the plan pointer or owns a copy —
// computes the identical post-failover plan; on shared plans only the
// first arrival mutates (see Plan.foRound).
func maybeFailover(c *mpi.Comm, sched *faults.Schedule, plan *Plan, r int) []FoEvent {
	if sched == nil || len(plan.Domains) == 0 {
		return nil
	}
	if plan.foRound > r {
		return plan.foLast
	}
	plan.foRound = r + 1
	down := func(d *Domain) (dead, byNode bool) {
		node := c.NodeOf(d.Agg)
		if sched.NodeFailedBy(node, r) {
			return true, true
		}
		if plan.MemMin > 0 && d.NodeAvail > 0 &&
			d.NodeAvail-sched.PressureBy(node, r) < plan.MemMin {
			return true, false
		}
		return false, false
	}
	plan.foLast = applyFailover(plan, r, down)
	return plan.foLast
}

// applyFailover evaluates the down predicate for every domain and
// remerges the failed ones into takers. Factored from maybeFailover so
// the mutation logic is unit-testable without a communicator.
func applyFailover(plan *Plan, r int, down func(d *Domain) (dead, byNode bool)) []FoEvent {
	n := len(plan.Domains)
	alive := make([]bool, n)
	byNode := make([]bool, n)
	var failed []int
	for i := range plan.Domains {
		d := &plan.Domains[i]
		dead, cause := down(d)
		alive[i] = !dead
		byNode[i] = cause
		if dead && len(d.Windows) > r {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	var evs []FoEvent
	for _, fi := range failed {
		ti := pickTakeover(plan, fi, alive)
		ev := FoEvent{Round: r, Failed: fi, Taker: ti, ByNodeFailure: byNode[fi]}
		if ti < 0 {
			// No survivor anywhere: the domain keeps serving on its
			// failed aggregator — degraded, but no data is lost.
			evs = append(evs, ev)
			continue
		}
		f := &plan.Domains[fi]
		tk := &plan.Domains[ti]
		absorbed := f.Windows[r:]
		for _, w := range absorbed {
			ev.Bytes += w.Len
		}
		// The absorbed windows must land at round indices >= r so they
		// play after the takeover; pad the survivor's schedule with
		// inert zero-length windows if it is already past r.
		for len(tk.Windows) < r {
			tk.Windows = append(tk.Windows, datatype.Segment{Off: tk.Hi, Len: 0})
		}
		tk.Windows = append(tk.Windows, absorbed...)
		if f.Lo < tk.Lo {
			tk.Lo = f.Lo
		}
		if f.Hi > tk.Hi {
			tk.Hi = f.Hi
		}
		// Tombstone the failed domain: truncate its schedule at the
		// failed round and collapse its extent so the re-exchange routes
		// no requests to it. The slot stays so domain indices (Sibling,
		// aggState) remain valid.
		f.Windows = f.Windows[:r]
		f.Hi = f.Lo
		evs = append(evs, ev)
	}
	plan.Rounds = plan.MaxRounds()
	if plan.Rounds < r {
		plan.Rounds = r
	}
	return evs
}

// pickTakeover chooses the surviving domain that absorbs fi: the
// planner-designated sibling when alive, else the nearest surviving
// domain by index (file order), lower index on ties.
func pickTakeover(plan *Plan, fi int, alive []bool) int {
	if s := plan.Domains[fi].Sibling; s >= 0 && s < len(plan.Domains) && s != fi && alive[s] {
		return s
	}
	for dist := 1; dist < len(plan.Domains); dist++ {
		if i := fi - dist; i >= 0 && alive[i] {
			return i
		}
		if i := fi + dist; i < len(plan.Domains) && alive[i] {
			return i
		}
	}
	return -1
}

// recordFailovers attributes a check's events to the calling rank:
// exactly one rank (the taker's aggregator, or the failed aggregator
// for unrecovered domains) records each event's metrics and trace
// instants, so shared-plan and per-rank-plan strategies account alike.
func recordFailovers(c *mpi.Comm, sched *faults.Schedule, plan *Plan, evs []FoEvent, m *trace.Metrics, loc obs.Loc) {
	for _, ev := range evs {
		if ev.Taker < 0 {
			if plan.Domains[ev.Failed].Agg == c.Rank() {
				sched.RecordUnrecovered(loc, ev.Failed)
			}
			continue
		}
		if plan.Domains[ev.Taker].Agg == c.Rank() {
			sched.RecordFailover(loc, ev.ByNodeFailure, ev.Bytes, ev.Failed)
			m.AddRemerge()
		}
	}
}

// injectRoundFaults runs the per-round fault hooks after the entry
// barrier: ledger pressure application, the aggregator failover check
// and the leader failover check. It returns true when the plan changed
// and the caller must redo its routing (request exchange and leader
// topology). Callers guard with sched != nil so the fault-free path
// stays allocation-free.
func injectRoundFaults(c *mpi.Comm, sched *faults.Schedule, plan *Plan, r int, m *trace.Metrics, loc obs.Loc) bool {
	sched.ApplyPressure(r, func(node int, bytes int64) {
		c.World().Machine().Node(node).InjectPressure(bytes)
	})
	evs := maybeFailover(c, sched, plan, r)
	recordFailovers(c, sched, plan, evs, m, loc)
	lf := maybeLeaderFailover(c, sched, plan, r)
	recordLeaderFailovers(c, sched, lf, loc)
	return len(evs) > 0 || len(lf) > 0
}

// LeaderFoEvent records one leadership-handoff decision of a round's
// leader check (plans with a leader map only).
type LeaderFoEvent struct {
	Round  int
	Node   int // comm node of the failed leader
	Failed int // comm rank of the failed leader
	Taker  int // successor comm rank; -1 when no survivor exists on the node
}

// maybeLeaderFailover runs the round-r leadership check for plans with
// an elected leader map: a leader whose world rank is failed by this
// round hands its role — the intra-node funnel plus any file domain it
// aggregates — to the next surviving rank in its node's election
// order. Like maybeFailover the decision is a pure function of
// (schedule, plan, round), guarded by Plan.lfRound so shared plans
// mutate once; non-empty events mean the caller must redo the request
// exchange and rebuild its topology.
func maybeLeaderFailover(c *mpi.Comm, sched *faults.Schedule, plan *Plan, r int) []LeaderFoEvent {
	if sched == nil || plan.LeaderOf == nil {
		return nil
	}
	if plan.lfRound > r {
		return plan.lfLast
	}
	plan.lfRound = r + 1
	var evs []LeaderFoEvent
	for rank := 0; rank < len(plan.LeaderOf); rank++ {
		l := plan.LeaderOf[rank]
		if l != rank || !sched.RankFailedBy(c.WorldRank(l), r) {
			// Only current leaders (fixed points of the map) are checked;
			// a demoted ex-leader's failure is old news.
			continue
		}
		taker := -1
		if plan.LeaderSucc != nil {
			for _, s := range plan.LeaderSucc[l] {
				if s != l && !sched.RankFailedBy(c.WorldRank(s), r) {
					taker = s
					break
				}
			}
		}
		evs = append(evs, LeaderFoEvent{Round: r, Node: c.NodeOf(l), Failed: l, Taker: taker})
		if taker < 0 {
			// Single-rank node or every mate failed too: the leader keeps
			// serving degraded — the role has nowhere to go, data still flows.
			continue
		}
		for x := range plan.LeaderOf {
			if plan.LeaderOf[x] == l {
				plan.LeaderOf[x] = taker
			}
		}
		// A file domain the failed leader aggregated moves to the first
		// successor that owns none (one domain per aggregator is an engine
		// invariant) — same node either way, so the charged buffer and
		// NodeAvail snapshot remain valid. With no free survivor the
		// domain stays with the failed rank: degraded, nothing lost.
		owned := make(map[int]bool, len(plan.Domains))
		for di := range plan.Domains {
			if a := plan.Domains[di].Agg; a != l {
				owned[a] = true
			}
		}
		domTaker := -1
		if plan.LeaderSucc != nil {
			for _, s := range plan.LeaderSucc[l] {
				if s != l && !owned[s] && !sched.RankFailedBy(c.WorldRank(s), r) {
					domTaker = s
					break
				}
			}
		}
		if domTaker >= 0 {
			for di := range plan.Domains {
				if plan.Domains[di].Agg == l {
					plan.Domains[di].Agg = domTaker
				}
			}
		}
	}
	plan.lfLast = evs
	return evs
}

// recordLeaderFailovers attributes a leader check's events: the taker
// rank records recovered handoffs, the failed leader records
// unrecoverable ones — exactly one recorder per event.
func recordLeaderFailovers(c *mpi.Comm, sched *faults.Schedule, evs []LeaderFoEvent, loc obs.Loc) {
	for _, ev := range evs {
		if ev.Taker < 0 {
			if ev.Failed == c.Rank() {
				sched.RecordUnrecovered(loc, -1)
			}
			continue
		}
		if ev.Taker == c.Rank() {
			sched.RecordLeaderFailover(loc, c.WorldRank(ev.Failed), c.WorldRank(ev.Taker))
		}
	}
}

// dropPenalty models this rank's retransmissions for a round's shuffle
// exchange: a deterministic per-(group,round,rank) draw decides how
// many sends were dropped, and the rank sits out the capped
// exponential-backoff penalty in virtual time. Retry exhaustion still
// delivers, so the collective always completes.
func dropPenalty(c *mpi.Comm, sched *faults.Schedule, plan *Plan, r int, loc obs.Loc) {
	drops := sched.ExchangeDrops(plan.Group, r, c.WorldRank(c.Rank()))
	if drops == 0 {
		return
	}
	pen := sched.RetryPenalty(drops)
	sched.RecordDrops(loc, drops, pen)
	c.Proc().Sleep(pen)
}
