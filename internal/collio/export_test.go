package collio

import "slices"

// RuleDiffs lets the external chaos-grid test (package collio_test, which
// may import the strategies built on collio) compare the remerge rules
// over the plans those strategies make.
var RuleDiffs = ruleDiffs

// PerRound runs f with every rank taking every round's barrier on its
// own, the reference the standing path is held to.
func PerRound(f func()) {
	perRound = true
	defer func() { perRound = false }()
	f()
}

// Bundle is a write round's intra-node bundle from Mate to Leader
// (world ranks) in one group's round, with its pieces; Meets says
// whether Mate's view meets some domain's window in that round, by a
// walk over the overlay in effect.
type Bundle struct {
	Group, Round, Mate, Leader, Pieces int
	Meets                              bool
}

// Funnels runs f and returns, for each round every rank that does not
// lead ran, the bundle it packed (Pieces 0: it sends none), and every
// bundle a leader took.
func Funnels(f func()) (packed, taken []Bundle) {
	funnelHook = func(x *collective, r, mate int, b []domPiece, took bool) {
		c := x.c
		view := x.vi.View()
		if took {
			view = x.topo.views[slices.Index(x.topo.mates, mate)]
		}
		meets := false
		for di := range x.ov.doms {
			w, ok := x.ov.window(di, r)
			meets = meets || ok && view.Intersects(w.Off, w.End())
		}
		bd := Bundle{Group: x.plan.Group, Round: r, Mate: c.WorldRank(mate), Leader: c.WorldRank(x.topo.of(mate)), Pieces: len(b), Meets: meets}
		if took {
			taken = append(taken, bd)
		} else {
			packed = append(packed, bd)
		}
	}
	defer func() { funnelHook = nil }()
	f()
	return packed, taken
}
