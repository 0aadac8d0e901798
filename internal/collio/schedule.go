package collio

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/datatype"
)

// The round schedule. ROMIO's two-phase I/O computes which partners
// have data in which round once, before the round loop (my_req /
// others_req), so a round only touches the partners that move data in
// it. route() does the same under the overlay's current routing: each
// rank lists the (round, domain) pairs where its view meets a domain's
// window; as a write leader, the (round, mate) pairs where a mate's
// view meets one, the rounds the mate funnels it a bundle; and, as an
// aggregator, the (round, requester) pairs where a request meets its
// own window. The hot loops then walk one round's slice of those lists
// instead of every domain and every requester.

// step is one entry of a round schedule: in round r, partner i — a
// domain index, an index into topology.mates, or an index into
// aggState.reqOrder — has data.
type step struct{ r, i int32 }

// stepList is a schedule sorted by (round, partner), read round by
// round in ascending order.
type stepList struct {
	steps []step
	next  int // first step of the last round asked for
}

// at returns the steps of round r. Rounds must be asked for in
// ascending order; asking for the same round again returns the same
// steps.
func (l *stepList) at(r int) []step {
	i := l.next
	for i < len(l.steps) && int(l.steps[i].r) < r {
		i++
	}
	l.next = i
	j := i
	for j < len(l.steps) && int(l.steps[j].r) == r {
		j++
	}
	return l.steps[i:j]
}

// first returns the first round from r on that has steps, at most last;
// it counts as asking for round r.
func (l *stepList) first(r, last int) int {
	if l.at(r); l.next < len(l.steps) {
		return min(int(l.steps[l.next].r), last)
	}
	return last
}

// roundSchedule is one rank's partners by round, from some round on.
type roundSchedule struct {
	// doms: the rounds where my view meets a domain's window — for a
	// read leader, where my view or any mate's does.
	doms stepList
	// mates: a write leader's rounds where a mate's view (i indexes
	// topology.mates) meets some domain's window, so the mate funnels
	// me a bundle; empty on reads and unless I lead.
	mates stepList
	// reqs: the rounds where a requester's segments (aggState.reqOrder)
	// meet my window; empty unless I aggregate.
	reqs stepList
}

// stepSink takes the meetings one walk over the schedule finds: the
// first pass counts them (steps nil), the second fills one exact-size
// slice.
type stepSink struct {
	steps []step
	n     int
	i     int // partner the meetings being reported belong to
}

func (s *stepSink) add(r int) {
	if s.steps != nil {
		s.steps = append(s.steps, step{r: int32(r), i: int32(s.i)})
	}
	s.n++
}

// newRoundSchedule builds the schedule of a rank whose view is own, and
// who leads the ranks with views mates, from round from on, under
// overlay o; mine is its aggregator state, nil if it aggregates
// nothing. On a write the mates' rounds are listed per mate; on a read
// they join doms. Views and request lists must be canonical.
func newRoundSchedule(o *overlay, from int, own datatype.List, mates []datatype.List, write bool, mine *aggState) roundSchedule {
	var s stepSink
	var nd, nm int
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if s.n == 0 {
				return roundSchedule{}
			}
			s.steps, s.n = make([]step, 0, s.n), 0
		}
		for s.i = range o.doms {
			o.meet(s.i, from, own, s.add)
			if !write {
				for _, v := range mates {
					o.meet(s.i, from, v, s.add)
				}
			}
		}
		nd = s.n
		if write {
			for i, v := range mates {
				s.i = i
				for di := range o.doms {
					o.meet(di, from, v, s.add)
				}
			}
		}
		nm = s.n
		if mine != nil {
			for i, en := range mine.reqOrder {
				s.i = i
				o.meet(mine.di, from, en.segs, s.add)
			}
		}
	}
	byRound := func(a, b step) int { return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.i, b.i)) }
	doms, ms, reqs := s.steps[:nd:nd], s.steps[nd:nm:nm], s.steps[nm:]
	slices.SortFunc(doms, byRound)
	slices.SortFunc(ms, byRound)
	slices.SortFunc(reqs, byRound)
	// A window several of a read node's views meet; a mate whose view
	// meets several windows in a round.
	doms, ms = slices.Compact(doms), slices.Compact(ms)
	return roundSchedule{doms: stepList{steps: doms}, mates: stepList{steps: ms}, reqs: stepList{steps: reqs}}
}

// meet calls f, in ascending order, with every round from from on in
// which domain di's window meets l — the rounds r where window(di, r)
// exists and l intersects it. The domain's own windows are strictly
// ordered, so l and they leapfrog by binary search. Absorbed runs need
// not be ordered by offset (a taker's absorbed windows follow its own),
// so they are scanned one by one. Each run starts after the own
// windows and the runs before it end (failover appends it at the
// taker's end, take cuts all of them at one round), so no round has two
// windows and the rounds come out ascending.
func (o *overlay) meet(di, from int, l datatype.List, f func(r int)) {
	if len(l) == 0 {
		return
	}
	own := o.doms[di].Windows
	if from < len(own) {
		v, ws, r := l, own[from:], from
		for len(v) > 0 && len(ws) > 0 {
			switch s, w := v[0], ws[0]; {
			case s.End() <= w.Off:
				v = v[sort.Search(len(v), func(j int) bool { return v[j].End() > w.Off }):]
			case w.End() <= s.Off:
				k := sort.Search(len(ws), func(j int) bool { return ws[j].End() > s.Off })
				ws, r = ws[k:], r+k
			default:
				f(r)
				ws, r = ws[1:], r+1
			}
		}
	}
	if o.absorbed == nil {
		return
	}
	for _, ru := range o.absorbed[di] {
		for k := max(from-ru.at, 0); k < len(ru.ws); k++ {
			if l.Intersects(ru.ws[k].Off, ru.ws[k].End()) {
				f(ru.at + k)
			}
		}
	}
}
