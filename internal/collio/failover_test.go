package collio

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// linePlan builds a plan of n consecutive 200-byte domains of two
// windows each, domain i aggregated by rank i, under the given remerge
// tree.
func linePlan(n int, tree RemergeTree) *Plan {
	p := &Plan{Exts: make([]Ext, n), Tree: tree}
	for i := range n {
		lo := int64(i) * 200
		p.Domains = append(p.Domains, Domain{
			Agg: i, Lo: lo, Hi: lo + 200, BufBytes: 100,
			Windows: []datatype.Segment{{Off: lo, Len: 100}, {Off: lo + 100, Len: 100}},
		})
	}
	return p
}

// failPlan is the three-domain even-split shape the failover tests carve
// up: domains 0 and 1 are siblings, domain 2 joins them above.
func failPlan() *Plan { return linePlan(3, balancedTree(3)) }

// randomTree draws a remerge tree over n leaves by random bisection.
func randomTree(rng *rand.Rand, n int) RemergeTree {
	return bisectTree(n, func(lo, hi int) int { return lo + 1 + rng.Intn(hi-lo-1) })
}

// TestBalancedTreePairsNeighbours: the even split's remerge tree sends
// every domain's first failure where the pairing it replaced did — to
// i^1, or to i-1 for a trailing odd domain — and is a valid tree.
func TestBalancedTreePairsNeighbours(t *testing.T) {
	for n := 0; n <= 40; n++ {
		tree := balancedTree(n)
		if _, err := tree.spans(n, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, s := range siblingSnapshot(tree) {
			want := i ^ 1
			if want >= n {
				want = i - 1
			}
			if s != want {
				t.Errorf("n=%d: domain %d's first failure goes to %d, want %d", n, i, s, want)
			}
		}
	}
}

// clonePlan deep-copies everything reachable from p, so a test can hold
// the plan to its state before a run.
func clonePlan(p *Plan) *Plan {
	q := *p
	q.Domains = slices.Clone(p.Domains)
	for i := range q.Domains {
		q.Domains[i].Windows = slices.Clone(p.Domains[i].Windows)
	}
	q.Exts = slices.Clone(p.Exts)
	q.Tree = slices.Clone(p.Tree)
	q.LeaderOf = slices.Clone(p.LeaderOf)
	q.LeaderSucc = slices.Clone(p.LeaderSucc)
	for i := range q.LeaderSucc {
		q.LeaderSucc[i] = slices.Clone(p.LeaderSucc[i])
	}
	return &q
}

func ident(r int) int { return r }

func mustSchedule(t testing.TB, spec faults.Spec) *faults.Schedule {
	t.Helper()
	s, err := faults.NewSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deadNodes is a schedule under which the given nodes are dead from
// round 0. The failover tests place rank i on node i (ident), so it
// kills the aggregators of those ranks.
func deadNodes(t testing.TB, nodes ...int) *faults.Schedule {
	var spec faults.Spec
	for _, n := range nodes {
		spec.NodeFailures = append(spec.NodeFailures, faults.NodeFailure{Node: n})
	}
	return mustSchedule(t, spec)
}

// schedule lists domain di's windows by round up to the overlay's round
// count; a round without a window is the zero Segment.
func schedule(o *overlay, di int) []datatype.Segment {
	out := make([]datatype.Segment, o.rounds)
	for r := range out {
		out[r], _ = o.window(di, r)
	}
	return out
}

func TestApplyFailoverRemerge(t *testing.T) {
	p := failPlan()
	ov, evs := failover(deadNodes(t, 0), ident, ident, p, newOverlay(p), 1)
	if len(evs) != 1 {
		t.Fatalf("events = %+v, want 1", evs)
	}
	ev := evs[0]
	if ev.Failed != 0 || ev.Taker != 1 || ev.Round != 1 || ev.Kind != foNodeDeath || ev.Bytes != 100 || ev.By != 1 {
		t.Errorf("event %+v, want failed=0 taker=1 round=1 node death bytes=100 recorded by 1", ev)
	}
	// The failed domain keeps its served round, loses the rest, and its
	// extent collapses.
	want := []datatype.Segment{{Off: 0, Len: 100}, {}, {}}
	if f := ov.doms[0]; !reflect.DeepEqual(schedule(&ov, 0), want) || f.Hi != f.Lo {
		t.Errorf("failed domain keeps %v extent=[%d,%d), want %v and an empty extent", schedule(&ov, 0), f.Lo, f.Hi, want)
	}
	// Taker: own round-0/1 windows, then the absorbed round-1 window.
	want = []datatype.Segment{{Off: 200, Len: 100}, {Off: 300, Len: 100}, {Off: 100, Len: 100}}
	if !reflect.DeepEqual(schedule(&ov, 1), want) {
		t.Errorf("taker windows = %v, want %v", schedule(&ov, 1), want)
	}
	if tk := ov.doms[1]; tk.Lo != 0 || tk.Hi != 400 {
		t.Errorf("taker extent = [%d,%d), want union [0,400)", tk.Lo, tk.Hi)
	}
	if ov.rounds != 3 {
		t.Errorf("rounds = %d, want 3 (taker grew a round)", ov.rounds)
	}
}

// TestApplyFailoverPadding: a taker already finished with its own
// schedule serves nothing up to the failed round, so the absorbed
// windows keep their round indices.
func TestApplyFailoverPadding(t *testing.T) {
	p := failPlan()
	p.Domains[1].Windows = p.Domains[1].Windows[:1] // taker has 1 round only
	ov, evs := failover(deadNodes(t, 0), ident, ident, p, newOverlay(p), 1)
	if len(evs) != 1 || evs[0].Taker != 1 {
		t.Fatalf("events = %+v", evs)
	}
	want := []datatype.Segment{{Off: 200, Len: 100}, {Off: 100, Len: 100}}
	if got := schedule(&ov, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("taker windows = %v, want %v (1 own + 1 absorbed)", got, want)
	}

	// Same shape but failing at round 2: the taker sits out round 1
	// before the absorbed window plays at round 2.
	p2 := failPlan()
	p2.Domains[0].Windows = append(p2.Domains[0].Windows, datatype.Segment{Off: 250, Len: 50})
	p2.Domains[0].Hi = 300
	p2.Domains[1].Windows = p2.Domains[1].Windows[:1]
	ov, evs = failover(deadNodes(t, 0), ident, ident, p2, newOverlay(p2), 2)
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	if ov.end(1) != 3 {
		t.Fatalf("taker schedule ends at round %d, want 3 (own, gap, absorbed)", ov.end(1))
	}
	if w, ok := ov.window(1, 1); ok {
		t.Errorf("taker serves %v in the gap round", w)
	}
	if w, ok := ov.window(1, 2); !ok || w.Len != 50 {
		t.Errorf("absorbed window = %v %v, want the round-2 remainder", w, ok)
	}
}

// TestApplyFailoverSiblingPreference: a lost domain goes into its
// sibling subtree — to the survivor there nearest it — and, once that
// subtree is all gone, into the sibling subtree one level up: the tree
// decides, not the nearest surviving index. One domain dies at round 0,
// another at round 1.
func TestApplyFailoverSiblingPreference(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n             int
		tree          RemergeTree
		first, second int
		takers        [2]int // of the first and the second failure
	}{
		{"partition tree (0,(1,(2,3)))", 4, RemergeTree{6, 5, 4, 4, 5, 6, -1}, 2, 1, [2]int{3, 3}},
		{"even split of 8", 8, balancedTree(8), 5, 4, [2]int{4, 6}},
		{"even split of 3, trailing domain", 3, balancedTree(3), 2, 1, [2]int{1, 0}},
	} {
		p := linePlan(tc.n, tc.tree)
		sched := mustSchedule(t, faults.Spec{NodeFailures: []faults.NodeFailure{{Node: tc.first, Round: 0}, {Node: tc.second, Round: 1}}})
		ov, evs := failover(sched, ident, ident, p, newOverlay(p), 0)
		if len(evs) != 1 || evs[0].Taker != tc.takers[0] {
			t.Fatalf("%s: round 0 events %+v, want domain %d into %d", tc.name, evs, tc.first, tc.takers[0])
		}
		_, evs = failover(sched, ident, ident, p, ov, 1)
		if len(evs) != 1 || evs[0].Failed != tc.second || evs[0].Taker != tc.takers[1] {
			t.Errorf("%s: round 1 events %+v, want domain %d into %d", tc.name, evs, tc.second, tc.takers[1])
		}
	}
}

// TestApplyFailoverNoSurvivor: every aggregator lost. The domains keep
// their schedules (degraded service on the failed nodes — no data can
// move anywhere) and each failure is reported with Taker -1, recorded by
// the failed aggregator itself.
func TestApplyFailoverNoSurvivor(t *testing.T) {
	p := failPlan()
	ov, evs := failover(deadNodes(t, 0, 1, 2), ident, ident, p, newOverlay(p), 0)
	if len(evs) != 3 {
		t.Fatalf("events = %+v, want 3", evs)
	}
	for _, ev := range evs {
		if ev.Taker != -1 || ev.By != p.Domains[ev.Failed].Agg {
			t.Errorf("event %+v: want Taker -1, recorded by the failed aggregator", ev)
		}
	}
	for i, d := range p.Domains {
		if !reflect.DeepEqual(d.Windows, schedule(&ov, i)) {
			t.Errorf("domain %d rescheduled with no survivor: %v", i, schedule(&ov, i))
		}
	}
}

// TestApplyFailoverPastSchedule: a dead aggregator whose domain already
// finished its windows needs no remerge — at its last round or any
// round past the plan's.
func TestApplyFailoverPastSchedule(t *testing.T) {
	p := failPlan()
	for _, r := range []int{2, 3, 40} {
		if _, evs := failover(deadNodes(t, 0), ident, ident, p, newOverlay(p), r); evs != nil {
			t.Errorf("round %d: events = %+v, want none (schedule exhausted at round 2)", r, evs)
		}
	}
}

// TestApplyFailoverDeterministic: identical plans and schedules yield
// deep-equal overlays and event lists — the property that lets every
// rank run the check for itself — and leave the plan as it was.
func TestApplyFailoverDeterministic(t *testing.T) {
	p := failPlan()
	before := clonePlan(p)
	a, ea := failover(deadNodes(t, 0), ident, ident, p, newOverlay(p), 1)
	b, eb := failover(deadNodes(t, 0), ident, ident, p, newOverlay(p), 1)
	if !reflect.DeepEqual(ea, eb) {
		t.Errorf("events differ: %+v vs %+v", ea, eb)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("overlays diverged:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(p, before) {
		t.Errorf("the transition wrote the plan:\n%+v\n%+v", p, before)
	}
}

// TestFailoverChains covers what a single check cannot: routing that has
// already moved once moving again, and several decisions in one round.
func TestFailoverChains(t *testing.T) {
	t.Run("taker dies a round after absorbing", func(t *testing.T) {
		p := failPlan()
		sched := mustSchedule(t, faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 0, Round: 0}, {Node: 1, Round: 1}}})
		ov, evs := failover(sched, ident, ident, p, newOverlay(p), 0)
		if len(evs) != 1 || evs[0].Taker != 1 || evs[0].Bytes != 200 {
			t.Fatalf("round 0 events = %+v, want domain 0 -> 1, 200 bytes", evs)
		}
		ov, evs = failover(sched, ident, ident, p, ov, 1)
		// Domain 0 is finished, so only domain 1 fails: its own round-1
		// window and both windows it absorbed move on, once each.
		if len(evs) != 1 || evs[0].Failed != 1 || evs[0].Taker != 2 || evs[0].Bytes != 300 {
			t.Fatalf("round 1 events = %+v, want domain 1 -> 2, 300 bytes", evs)
		}
		want := []datatype.Segment{{Off: 400, Len: 100}, {Off: 500, Len: 100}, {Off: 300, Len: 100}, {Off: 0, Len: 100}, {Off: 100, Len: 100}}
		if got := schedule(&ov, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("last survivor serves %v, want %v", got, want)
		}
		if got := schedule(&ov, 1)[1:]; !reflect.DeepEqual(got, make([]datatype.Segment, 4)) {
			t.Errorf("twice-failed domain still serves %v after round 0", got)
		}
	})
	t.Run("two domains fail into one taker in one round", func(t *testing.T) {
		p := failPlan()
		ov, evs := failover(deadNodes(t, 0, 1), ident, ident, p, newOverlay(p), 1)
		if len(evs) != 2 || evs[0].Taker != 2 || evs[1].Taker != 2 || evs[0].By != 2 || evs[1].By != 2 {
			t.Fatalf("events = %+v, want both domains into 2, recorded by its aggregator", evs)
		}
		want := []datatype.Segment{{Off: 400, Len: 100}, {Off: 500, Len: 100}, {Off: 100, Len: 100}, {Off: 300, Len: 100}}
		if got := schedule(&ov, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("taker serves %v, want %v", got, want)
		}
	})
	t.Run("node death and leader death in one round", func(t *testing.T) {
		// Two nodes of two ranks: domains on ranks 0 and 2, each its
		// node's leader. Node 0 dies and leader 2 fails, both at round 1.
		p := linePlan(2, balancedTree(2))
		p.Domains[1].Agg = 2
		p.Exts = make([]Ext, 4)
		p.LeaderOf = []int{0, 0, 2, 2}
		p.LeaderSucc = [][]int{{0, 1}, {0, 1}, {2, 3}, {2, 3}}
		before := clonePlan(p)
		sched := mustSchedule(t, faults.Spec{
			NodeFailures: []faults.NodeFailure{{Node: 0, Round: 1}},
			RankFailures: []faults.RankFailure{{Rank: 2, Round: 1}},
		})
		nodeOf := func(r int) int { return r / 2 }
		ov, evs := failover(sched, nodeOf, ident, p, newOverlay(p), 1)
		// Aggregators first, then leaders. The remerge is recorded by the
		// rank that owned the taker when it was decided — rank 2, though
		// the handoff right after gives the domain to rank 3.
		want := []FoEvent{
			{Kind: foNodeDeath, Round: 1, Failed: 0, Taker: 1, Bytes: 100, By: 2},
			{Kind: foLeader, Round: 1, Failed: 2, Taker: 3, By: 3},
		}
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("events = %+v, want %+v", evs, want)
		}
		if !reflect.DeepEqual(ov.leaderOf, []int{0, 0, 3, 3}) || ov.doms[1].Agg != 3 {
			t.Errorf("leaders %v, taker domain on rank %d; want [0 0 3 3] and 3", ov.leaderOf, ov.doms[1].Agg)
		}
		if !reflect.DeepEqual(p, before) {
			t.Errorf("the transition wrote the plan")
		}
	})
}

// randomFailoverCase draws a valid plan of 1–8 domains with 0–6 windows
// each on a nodes x cores layout (rank r on node r/cores) — under a
// random remerge tree; with and without an elected leader map and its
// succession lines — and a fault schedule over it.
func randomFailoverCase(rng *rand.Rand) (p *Plan, cores int, spec faults.Spec) {
	nodes := 1 + rng.Intn(4)
	cores = 1 + rng.Intn(4)
	n := nodes * cores
	p = &Plan{Exts: make([]Ext, n)}
	aggs := rng.Perm(n)[:1+rng.Intn(min(8, n))]
	var off int64
	for _, agg := range aggs {
		d := Domain{Agg: agg, Lo: off, BufBytes: 64, NodeAvail: int64(rng.Intn(4)) << 10}
		for w := rng.Intn(7); w > 0; w-- {
			off += int64(rng.Intn(2)) * 8 // sometimes a hole before the window
			l := int64(1 + rng.Intn(64))
			d.Windows = append(d.Windows, datatype.Segment{Off: off, Len: l})
			off += l
		}
		d.Hi = off
		p.Domains = append(p.Domains, d)
	}
	p.Tree = randomTree(rng, len(p.Domains))
	if rng.Intn(2) == 0 {
		p.MemMin = 1 << 10
	}
	if rng.Intn(3) > 0 {
		var succ [][]int
		p.LeaderOf, succ = electLeaders(rng, nodes, cores)
		if rng.Intn(4) > 0 {
			p.LeaderSucc = succ
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		spec.NodeFailures = append(spec.NodeFailures, faults.NodeFailure{Node: rng.Intn(nodes), Round: rng.Intn(8)})
	}
	for k := rng.Intn(4); k > 0; k-- {
		spec.MemPressure = append(spec.MemPressure, faults.MemPressure{Node: rng.Intn(nodes), Round: rng.Intn(8), Bytes: int64(1+rng.Intn(3)) << 10})
	}
	for k := rng.Intn(5); k > 0; k-- {
		spec.RankFailures = append(spec.RankFailures, faults.RankFailure{Rank: rng.Intn(n), Round: rng.Intn(8)})
	}
	return p, cores, spec
}

// TestFailoverProperty steps the transition through every round of
// random plans under random fault schedules (monotone by construction:
// what is dead stays dead, pressure only accumulates). failover runs
// overlay.validate on every step that decided anything and panics when
// it does not hold; on top of that, two independent evaluations agree
// step by step, and the plan is never written.
func TestFailoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	decided := 0
	for i := 0; i < 2000; i++ {
		p, cores, spec := randomFailoverCase(rng)
		if err := p.Validate(len(p.Exts)); err != nil {
			t.Fatalf("case %d: generator built an invalid plan: %v", i, err)
		}
		before := clonePlan(p)
		nodeOf := func(r int) int { return r / cores }
		func() {
			defer func() {
				if err := recover(); err != nil {
					t.Fatalf("case %d: %v\nplan %+v\nfaults %+v", i, err, before, spec)
				}
			}()
			sa, sb := mustSchedule(t, spec), mustSchedule(t, spec)
			a, b := newOverlay(p), newOverlay(p)
			for r := 0; r < a.rounds; r++ {
				var ea, eb []FoEvent
				a, ea = failover(sa, nodeOf, ident, p, a, r)
				b, eb = failover(sb, nodeOf, ident, p, b, r)
				if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ea, eb) {
					panic(fmt.Sprintf("round %d: two evaluations diverge:\n%+v %+v\n%+v %+v", r, a, ea, b, eb))
				}
				decided += len(ea)
			}
		}()
		if !reflect.DeepEqual(p, before) {
			t.Fatalf("case %d: the transition wrote the plan:\n%+v\n%+v", i, p, before)
		}
	}
	if decided < 1000 {
		t.Errorf("only %d failover decisions in 2000 cases: the generator no longer reaches the transition", decided)
	}
}

// sharedPlan wraps a plan builder so that every rank of the world gets
// one and the same *Plan — the first built — for every collective of the
// test, and remembers what it looked like before anyone ran it. own
// counts the ranks whose builder handed them a plan of their own, which
// a builder that shares its plan itself (TwoPhase.Plan) never does.
type sharedPlan struct {
	build  func(c *mpi.Comm, view datatype.List) *Plan
	plan   *Plan
	before *Plan
	own    int
}

func (s *sharedPlan) get(c *mpi.Comm, view datatype.List) *Plan {
	if s.plan == nil {
		// Collective: every rank is in here before the first one returns.
		if p := s.build(c, view); s.plan == nil {
			s.plan, s.before = p, clonePlan(p)
		} else if p != s.plan {
			s.own++
		}
	}
	return s.plan
}

// withElection stamps the reference election on a copy of a built plan:
// lowest rank per node leads, the node's ranks ascending are its
// succession.
func withElection(build func(*mpi.Comm, datatype.List) *Plan) func(*mpi.Comm, datatype.List) *Plan {
	return func(c *mpi.Comm, view datatype.List) *Plan {
		p := *build(c, view)
		p.LeaderOf = lowestRankLeaders(c)
		p.LeaderSucc = make([][]int, c.Size())
		for r, l := range p.LeaderOf {
			p.LeaderSucc[l] = append(p.LeaderSucc[l], r)
		}
		for r, l := range p.LeaderOf {
			p.LeaderSucc[r] = p.LeaderSucc[l]
		}
		return &p
	}
}

// withMemMin arms the memory-exhaustion predicate on a copy of a built
// plan.
func withMemMin(build func(*mpi.Comm, datatype.List) *Plan, avail, memMin int64) func(*mpi.Comm, datatype.List) *Plan {
	return func(c *mpi.Comm, view datatype.List) *Plan {
		p := *build(c, view)
		p.MemMin = memMin
		p.Domains = slices.Clone(p.Domains)
		for i := range p.Domains {
			p.Domains[i].NodeAvail = avail
		}
		return &p
	}
}

// TestPlanUnchangedByRun hands one *Plan pointer to every rank — the
// case the old in-place failover needed guards for, and what TwoPhase.Plan
// itself does now — and to the write and the read after it, under
// schedules that make the collective fail over: every byte verifies,
// failovers happened, and the plan is deep-equal to its clone from
// before the first run. (The two-layer strategy's shared plan is held to
// the same under its leader and node schedules in package twolayer.)
func TestPlanUnchangedByRun(t *testing.T) {
	even := planOf(TwoPhase{CBBuffer: BufFloor})
	for _, tc := range []struct {
		name   string
		build  func(*mpi.Comm, datatype.List) *Plan
		shares bool // the builder hands every rank one plan itself
		spec   faults.Spec
	}{
		{"even split, node failure", even, true,
			faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 1, Round: 2}}}},
		{"even split, two node failures", even, true,
			faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 0, Round: 1}, {Node: 2, Round: 3}}}},
		{"elected leaders, rank failure", withElection(even), false,
			faults.Spec{RankFailures: []faults.RankFailure{{Rank: 0, Round: 1}, {Rank: 2, Round: 3}}}},
		{"elected leaders, node and rank failure in one round", withElection(even), false,
			faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 0, Round: 2}}, RankFailures: []faults.RankFailure{{Rank: 2, Round: 2}}}},
		{"grouped exact-write, memory pressure", withMemMin(groupedPlan(32<<10), 8<<20, 4<<20), false,
			faults.Spec{MemPressure: []faults.MemPressure{{Node: 2, Round: 1, Bytes: 6 << 20}}}},
		{"grouped exact-write, node failure then its taker's", withMemMin(groupedPlan(32<<10), 8<<20, 4<<20), false,
			faults.Spec{NodeFailures: []faults.NodeFailure{{Node: 0, Round: 1}, {Node: 1, Round: 3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, m, fs := testRig(t, 3, 2, 64*cluster.MiB)
			w, err := mpi.NewWorld(e, m, 6)
			if err != nil {
				t.Fatal(err)
			}
			sched := mustSchedule(t, tc.spec)
			w.SetFaults(sched)
			f := fs.Open("x")
			shared := &sharedPlan{build: tc.build}
			w.Start(func(c *mpi.Comm) {
				view := interleavedView(c.Rank(), 6, 8, 64<<10)
				roundTrip(t, plannedStrategy{build: shared.get}, f, c, view, &trace.Metrics{})
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if sched.Failovers() == 0 {
				t.Errorf("no failover happened: the schedule no longer reaches the plan (unrecovered %d)", sched.Unrecovered())
			}
			if !reflect.DeepEqual(shared.plan, shared.before) {
				t.Errorf("the run wrote the shared plan:\n%+v\n%+v", shared.plan, shared.before)
			}
			if tc.shares && shared.own != 0 {
				t.Errorf("%d ranks were built a plan of their own", shared.own)
			}
		})
	}
}

// aliased reports whether a and b are the same slice of the same array.
func aliased[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestFaultFreeRunKeepsOverlayAliased pins the fault-free path: with no
// schedule attached a collective never materialises its overlay — when
// execute returns, the overlay's slices are still the plan's own — for
// flat and led plans, writes and reads.
func TestFaultFreeRunKeepsOverlayAliased(t *testing.T) {
	for _, leaders := range []func(*mpi.Comm) []int{nil, lowestRankLeaders} {
		e, m, fs := testRig(t, 2, 2, 64*cluster.MiB)
		w, err := mpi.NewWorld(e, m, 4)
		if err != nil {
			t.Fatal(err)
		}
		f := fs.Open("x")
		w.Start(func(c *mpi.Comm) {
			view := interleavedView(c.Rank(), 4, 4, 64<<10)
			s := plannedStrategy{build: planOf(TwoPhase{CBBuffer: BufFloor}), leaders: leaders}
			for _, op := range []string{"write", "read"} {
				_, sched := s.Plan(op, c, view, nil)
				plan := sched.(*Plan)
				x := execute(f, c, iolib.NewViewIndex(view), fillViewBuffer(view, 1), plan, &trace.Metrics{}, op)
				if x.ov.rounds < 2 {
					t.Fatalf("%s ran %d rounds, want several", op, x.ov.rounds)
				}
				if !aliased(x.ov.doms, plan.Domains) || x.ov.absorbed != nil {
					t.Errorf("%s: fault-free collective copied its domains", op)
				}
				if !aliased(x.ov.leaderOf, plan.LeaderOf) || (leaders != nil) != (x.ov.leaderOf != nil) {
					t.Errorf("%s: fault-free collective copied its leader map", op)
				}
				c.Barrier()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// siblingSnapshot is the former Domain.Sibling of every leaf: the leaf
// next to it in its sibling subtree of the pristine tree (for an even
// split, i^1 or i-1), -1 for a lone leaf.
func siblingSnapshot(t RemergeTree) []int {
	n := (len(t) + 1) / 2
	s, err := t.spans(n, nil)
	if err != nil {
		panic(err)
	}
	sib := make([]int, n)
	for i := range sib {
		switch p := t[i]; {
		case p < 0:
			sib[i] = -1
		case s[p].lo == i:
			sib[i] = i + 1
		default:
			sib[i] = i - 1
		}
	}
	return sib
}

// pickTakeover is the runtime rule the remerge tree replaced: the
// snapshot sibling when it survives, else the nearest surviving domain
// by index (file order), lower index on ties.
func pickTakeover(sibling []int, fi int, alive []bool) int {
	if s := sibling[fi]; s >= 0 && s < len(sibling) && s != fi && alive[s] {
		return s
	}
	for dist := 1; dist < len(sibling); dist++ {
		if i := fi - dist; i >= 0 && alive[i] {
			return i
		}
		if i := fi + dist; i < len(sibling) && alive[i] {
			return i
		}
	}
	return -1
}

// ruleDiffs steps plan p's failover through every round under sched, as
// each rank's collective does, and holds each remerge's taker (the tree
// rule) against pickTakeover's choice from the same survivors. It
// returns the number of remerges compared and one line per remerge the
// two rules decide differently. The rules must agree whenever the
// snapshot sibling survives — on every first failure in a subtree.
func ruleDiffs(t testing.TB, sched *faults.Schedule, nodeOf, worldOf func(int) int, p *Plan) (remerges int, diffs []string) {
	t.Helper()
	sib := siblingSnapshot(p.Tree)
	ov := newOverlay(p)
	for r := 0; r < ov.rounds; r++ {
		var evs []FoEvent
		ov, evs = failover(sched, nodeOf, worldOf, p, ov, r)
		alive := make([]bool, len(p.Domains))
		for i, d := range p.Domains {
			node := nodeOf(d.Agg) // a leader handoff keeps a domain on its node
			drained := p.MemMin > 0 && d.NodeAvail > 0 && d.NodeAvail-sched.PressureBy(node, r) < p.MemMin
			alive[i] = !sched.NodeFailedBy(node, r) && !drained
		}
		for _, ev := range evs {
			if ev.Kind == foLeader {
				continue
			}
			remerges++
			if old := pickTakeover(sib, ev.Failed, alive); old != ev.Taker {
				diffs = append(diffs, fmt.Sprintf("round %d: domain %d goes to %d by the tree, to %d by the sibling rule (sibling %d is down)",
					r, ev.Failed, ev.Taker, old, sib[ev.Failed]))
				if s := sib[ev.Failed]; s >= 0 && alive[s] {
					t.Errorf("round %d: domain %d: the rules disagree (%d vs %d) while its sibling %d survives", r, ev.Failed, ev.Taker, old, s)
				}
			}
		}
	}
	return remerges, diffs
}

// TestRemergeRulesDifferential runs the tree rule against the sibling
// rule it replaced — on random trees and on even splits under random
// node deaths, and on the even split of the chaos schedules' shape
// (examples/chaos.json kills node 1 at round 2 after draining it at
// round 1) — and prints every remerge the two decide differently (-v).
// They may differ only on a second failure inside a subtree, and the
// generator must reach such failures.
func TestRemergeRulesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	total, differ := 0, 0
	for i := 0; i < 600; i++ {
		n := 1 + rng.Intn(12)
		p := linePlan(n, balancedTree(n))
		if i%2 == 1 {
			p.Tree = randomTree(rng, n)
		}
		var spec faults.Spec
		for k := 1 + rng.Intn(n); k > 0; k-- {
			spec.NodeFailures = append(spec.NodeFailures, faults.NodeFailure{Node: rng.Intn(n), Round: rng.Intn(2)})
		}
		rem, diffs := ruleDiffs(t, mustSchedule(t, spec), ident, ident, p)
		for _, d := range diffs {
			t.Logf("case %d, tree %v, faults %+v: %s", i, p.Tree, spec.NodeFailures, d)
		}
		total, differ = total+rem, differ+len(diffs)
	}
	for _, nodes := range []int{2, 3, 4, 10} {
		p := linePlan(nodes, balancedTree(nodes))
		p.MemMin = 1 << 20
		for i := range p.Domains {
			p.Domains[i].NodeAvail = 2 << 20
		}
		spec := faults.Spec{
			MemPressure:  []faults.MemPressure{{Node: 1, Round: 1, Bytes: 2 << 20}},
			NodeFailures: []faults.NodeFailure{{Node: 1, Round: 2}},
		}
		rem, diffs := ruleDiffs(t, mustSchedule(t, spec), ident, ident, p)
		if rem != 1 || len(diffs) != 0 {
			t.Errorf("chaos shape on %d nodes: %d remerges, differences %q; want one remerge decided alike", nodes, rem, diffs)
		}
	}
	t.Logf("%d of %d remerges decided differently", differ, total)
	if differ == 0 {
		t.Error("no remerge decided differently: the generator no longer reaches a second failure in a subtree")
	}
}

// TestFailoverValidateCatchesWrongTaker is the mutation check of the
// validator's remerge clauses: plans whose domain indices do not follow
// file order make the tree hand a lost domain to a wrong taker, and
// failover must panic naming what the taker broke.
func TestFailoverValidateCatchesWrongTaker(t *testing.T) {
	for _, tc := range []struct {
		name string
		los  [3]int64 // domain extents [lo, lo+200)
		want string
	}{
		{"a live domain between the failed one and its taker", [3]int64{0, 400, 200}, "hands domain 0 to 1 across live domain 2"},
		{"the grown taker over a live domain", [3]int64{0, 200, 300}, "leaves live domains 1 and 2 overlapping"},
	} {
		p := failPlan()
		for i, lo := range tc.los {
			d := &p.Domains[i]
			d.Lo, d.Hi = lo, lo+200
			d.Windows = []datatype.Segment{{Off: lo, Len: 100}, {Off: lo + 100, Len: 100}}
		}
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: failover panicked with %v, want %q", tc.name, err, tc.want)
				}
			}()
			failover(deadNodes(t, 0), ident, ident, p, newOverlay(p), 1)
		}()
	}
}
