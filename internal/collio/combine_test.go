package collio

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/trace"
)

// TestMergePiecesFileOrder: two mates' interleaved pieces merge into
// one piece in file order with touching runs coalesced, and the payload
// follows its segments (this also covers what the deleted
// TestCombinePiecesConcatenatesAligned checked: each input byte lands at
// its file offset when the merged piece is scattered).
func TestMergePiecesFileOrder(t *testing.T) {
	mk := func(tag uint64, segs ...datatype.Segment) shufflePiece {
		l := datatype.List(segs)
		b := buffer.NewReal(l.TotalBytes())
		var pos int64
		for _, s := range l {
			b.Slice(pos, s.Len).Fill(tag, s.Off)
			pos += s.Len
		}
		return shufflePiece{segs: l, data: b}
	}
	a := mk(1, datatype.Segment{Off: 0, Len: 10}, datatype.Segment{Off: 20, Len: 10}, datatype.Segment{Off: 70, Len: 5})
	b := mk(2, datatype.Segment{Off: 10, Len: 10}, datatype.Segment{Off: 50, Len: 20})
	got := mergePieces([]shufflePiece{b, a}, false)
	want := datatype.List{{Off: 0, Len: 30}, {Off: 50, Len: 25}}
	if !got.segs.Equal(want) {
		t.Fatalf("merged segments %v, want %v", got.segs, want)
	}
	if got.data.Len() != 55 {
		t.Fatalf("merged payload %d bytes, want 55", got.data.Len())
	}
	region := buffer.NewReal(100)
	iolib.ScatterIntoRegion(region, 0, got.segs, got.data)
	for _, c := range []struct {
		tag      uint64
		off, len int64
	}{{1, 0, 10}, {2, 10, 10}, {1, 20, 10}, {2, 50, 20}, {1, 70, 5}} {
		if i := region.Slice(c.off, c.len).Verify(c.tag, c.off); i != -1 {
			t.Errorf("bytes of rank %d at [%d,%d) wrong at %d", c.tag, c.off, c.off+c.len, i)
		}
	}
	if p := mergePieces([]shufflePiece{a, b}, true); !p.data.Phantom() || p.data.Len() != 55 {
		t.Errorf("phantom merge gave %+v", p.data)
	}
}

// TestMergePiecesSingleIsIdentity: one piece is forwarded untouched —
// what makes a rank that leads only itself ship exactly the flat
// exchange's payload (and what TestCombinePiecesSingleIsIdentity
// checked of the deleted combinePieces).
func TestMergePiecesSingleIsIdentity(t *testing.T) {
	p := shufflePiece{segs: datatype.List{{Off: 3, Len: 4}}, data: buffer.NewPhantom(4)}
	got := mergePieces([]shufflePiece{p}, true)
	if &got.segs[0] != &p.segs[0] || got.data.Len() != 4 || !got.data.Phantom() {
		t.Fatalf("single piece was rebuilt: %+v", got)
	}
}

// TestLowestRankLeaders covers the reference leader topology the
// combine tests stamp on their plans, including its
// nil-when-no-node-is-shared case; with TestTopology it replaces the
// deleted TestCombineStateTopology (lowest-rank leaders, who leads, who
// the mates are).
func TestLowestRankLeaders(t *testing.T) {
	for _, c := range []struct {
		name   string
		nodeOf []int
		want   []int
	}{
		{"block placement", []int{0, 0, 1, 1, 2, 2}, []int{0, 0, 2, 2, 4, 4}},
		{"round-robin placement", []int{7, 3, 7, 3}, []int{0, 1, 0, 1}},
		{"mixed node sizes", []int{0, 1, 1, 2}, []int{0, 1, 1, 3}},
		{"one rank per node", []int{0, 1, 2, 3}, nil},
		{"single rank", []int{5}, nil},
		{"empty", nil, nil},
	} {
		if got := LowestRankLeaders(c.nodeOf); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: LowestRankLeaders(%v) = %v, want %v", c.name, c.nodeOf, got, c.want)
		}
	}
}

// TestTopology checks a rank's place in the leader map for the three
// ways of filling it: no map, the identity map, and a real election.
func TestTopology(t *testing.T) {
	elected := []int{1, 1, 1, 3, 4, 4} // rank 1 leads {0,1,2}, 3 itself, 4 leads {4,5}
	for _, c := range []struct {
		name     string
		me       int
		leaderOf []int
		leader   int
		leads    bool
		solo     bool
		mates    []int
	}{
		{"no map", 2, nil, 2, true, true, nil},
		{"identity", 2, []int{0, 1, 2}, 2, true, true, nil},
		{"elected leader", 1, elected, 1, true, false, []int{0, 2}},
		{"elected follower", 2, elected, 1, false, false, nil},
		{"single-rank node", 3, elected, 3, true, true, nil},
		{"lowest-rank leader", 4, elected, 4, true, false, []int{5}},
	} {
		tp := newTopology(c.me, c.leaderOf)
		if tp.of(c.me) != c.leader || tp.leads() != c.leads || tp.solo() != c.solo || !reflect.DeepEqual(tp.mates, c.mates) {
			t.Errorf("%s: leader=%d leads=%v solo=%v mates=%v, want %d %v %v %v",
				c.name, tp.of(c.me), tp.leads(), tp.solo(), tp.mates, c.leader, c.leads, c.solo, c.mates)
		}
	}
}

// roundTrip writes and reads back view through s, checking every byte.
func roundTrip(t *testing.T, s iolib.Collective, f *pfs.File, c *mpi.Comm, view datatype.List, mtr *trace.Metrics) {
	iolib.Run(s, "write", f, c, view, fillViewBuffer(view, uint64(c.Rank())), mtr)
	dst := fillViewBuffer(view, 999)
	iolib.Run(s, "read", f, c, view, dst, mtr)
	var pos int64
	for _, seg := range view {
		if i := dst.Slice(pos, seg.Len).Verify(uint64(c.Rank()), seg.Off); i != -1 {
			t.Errorf("rank %d segment %v mismatch at %d", c.Rank(), seg, i)
		}
		pos += seg.Len
	}
}

// TestCombinedTwoPhaseRoundTripInPackage drives the intra-node layer
// via the baseline planner entirely within this package.
func TestCombinedTwoPhaseRoundTripInPackage(t *testing.T) {
	e, m, fs := testRig(t, 2, 3, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 6)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), 6, 8, 2<<10)
		tp := plannedStrategy{build: planOf(TwoPhase{CBBuffer: 32 << 10}), leaders: lowestRankLeaders}
		if _, plan := tp.Plan("write", c, view, nil); !reflect.DeepEqual(plan.(*Plan).LeaderOf, []int{0, 0, 0, 3, 3, 3}) {
			t.Errorf("lowest-rank plan leader map %v", plan.(*Plan).LeaderOf)
		}
		var mtr trace.Metrics
		roundTrip(t, tp, f, c, view, &mtr)
		// Only aggregators record rounds in their local metrics.
		if mtr.Aggregators > 0 && mtr.Rounds == 0 {
			t.Error("aggregator recorded no rounds")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCombinedSingleRankPerNode: with one rank per node there is
// nobody to combine — the plan carries no leader map at all.
func TestCombinedSingleRankPerNode(t *testing.T) {
	e, m, fs := testRig(t, 4, 1, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), 4, 4, 4<<10)
		tp := plannedStrategy{build: planOf(TwoPhase{CBBuffer: 16 << 10}), leaders: lowestRankLeaders}
		if _, plan := tp.Plan("write", c, view, nil); plan.(*Plan).LeaderOf != nil {
			t.Errorf("leader map %v on a one-rank-per-node machine", plan.(*Plan).LeaderOf)
		}
		roundTrip(t, tp, f, c, view, &trace.Metrics{})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// plannedStrategy plans with a plan builder, optionally stamping a
// leader map on a copy of the plan (the built one is shared by every
// rank and nobody writes it).
type plannedStrategy struct {
	build   func(c *mpi.Comm, view datatype.List) *Plan
	leaders func(c *mpi.Comm) []int // nil: the flat exchange
}

func (s plannedStrategy) Name() string { return "planned" }

func (s plannedStrategy) Plan(op string, c *mpi.Comm, view datatype.List, m *trace.Metrics) (*mpi.Comm, iolib.Schedule) {
	plan := s.build(c, view)
	if s.leaders != nil {
		p := *plan
		p.LeaderOf = s.leaders(c)
		plan = &p
	}
	return c, plan
}

// planOf is tp's planning as a plan builder: the shared *Plan its Plan
// hands iolib.Run.
func planOf(tp TwoPhase) func(*mpi.Comm, datatype.List) *Plan {
	return func(c *mpi.Comm, view datatype.List) *Plan {
		_, s := tp.Plan("", c, view, nil)
		return s.(*Plan)
	}
}

// lowestRankLeaders is the reference topology: every rank follows the
// lowest rank on its node.
func lowestRankLeaders(c *mpi.Comm) []int {
	nodeOf := make([]int, c.Size())
	for r := range nodeOf {
		nodeOf[r] = c.NodeOf(r)
	}
	return LowestRankLeaders(nodeOf)
}

// identityLeaders is the degenerate topology: every rank leads itself.
func identityLeaders(c *mpi.Comm) []int {
	leaderOf := make([]int, c.Size())
	for r := range leaderOf {
		leaderOf[r] = r
	}
	return leaderOf
}

// groupedPlan builds a plan of the memory-conscious shape from the
// allgathered views: exact writes, coverage windows over domains cut by
// data volume, several aggregators per node and none of them the
// node's lowest rank.
func groupedPlan(buf int64) func(c *mpi.Comm, view datatype.List) *Plan {
	return func(c *mpi.Comm, view datatype.List) *Plan {
		p := c.Size()
		plan := &Plan{Exts: make([]Ext, p), ExactWrite: true}
		var all datatype.List
		for r, v := range c.Allgather(segsVal{view}, int64(len(view))*extBytes+8) {
			segs := v.(segsVal).segs
			lo, hi := segs.Extent()
			plan.Exts[r] = Ext{Lo: lo, Hi: hi}
			all = append(all, segs...)
		}
		coverage := datatype.Normalize(all)
		if len(coverage) == 0 {
			return plan
		}
		naggs := (p + 1) / 2
		share := (coverage.TotalBytes() + int64(naggs) - 1) / int64(naggs)
		rest := coverage
		for i := 0; i < naggs && len(rest) > 0; i++ {
			// Cut after `share` covered bytes (the last domain takes the rest).
			cut := rest[len(rest)-1].End()
			if i < naggs-1 {
				left := share
				for _, s := range rest {
					if s.Len >= left {
						cut = s.Off + left
						break
					}
					left -= s.Len
				}
			}
			restLo, restHi := rest.Extent()
			dom := rest.Clip(restLo, cut)
			rest = rest.Clip(cut, restHi)
			lo, hi := dom.Extent()
			plan.Domains = append(plan.Domains, Domain{
				Agg: p - 1 - 2*i, Lo: lo, Hi: hi, BufBytes: buf,
				Windows: CoverageWindows(nil, dom, lo, hi, buf),
			})
		}
		plan.Tree = balancedTree(len(plan.Domains))
		return plan
	}
}

// TestIdentityLeadersMatchFlat is the degenerate-topology property: a
// plan whose leader map is the identity runs the very same simulation
// as the plan without a map — equal results and an equal final event
// sequence number, so not one message, bus charge or wake-up differs —
// for random IOR and explicit layouts, writes and reads, two-phase and
// memory-conscious plan shapes.
func TestIdentityLeadersMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 24; i++ {
		nodes, cores := 1+rng.Intn(4), 1+rng.Intn(4)
		p := nodes * cores
		views := make([]datatype.List, p)
		if i%2 == 0 { // IOR: interleaved blocks
			blocks, blockLen := 1+rng.Intn(6), int64(1+rng.Intn(8))<<10
			for r := range views {
				views[r] = interleavedView(r, p, blocks, blockLen)
			}
		} else { // explicit: random disjoint runs with holes, some ranks empty
			var off int64
			for n := rng.Intn(6 * p); n > 0; n-- {
				off += int64(rng.Intn(3)) << 9
				l := int64(1+rng.Intn(16)) << 8
				r := rng.Intn(p)
				views[r] = append(views[r], datatype.Segment{Off: off, Len: l})
				off += l
			}
			for r := range views {
				views[r] = datatype.Normalize(views[r])
			}
		}
		buf := int64(1+rng.Intn(8)) << 10
		for name, build := range map[string]func(*mpi.Comm, datatype.List) *Plan{
			"two-phase": planOf(TwoPhase{CBBuffer: buf}),
			"grouped":   groupedPlan(buf),
		} {
			for _, op := range []string{"write", "read"} {
				run := func(leaders func(*mpi.Comm) []int) (trace.Result, uint64) {
					e, m, fs := testRig(t, nodes, cores, 64*cluster.MiB)
					w, err := mpi.NewWorld(e, m, p)
					if err != nil {
						t.Fatal(err)
					}
					f := fs.Open("x")
					var res trace.Result
					w.Start(func(c *mpi.Comm) {
						view := views[c.Rank()]
						data := fillViewBuffer(view, uint64(c.Rank()))
						s := plannedStrategy{build: build, leaders: leaders}
						if r := iolib.Run(s, op, f, c, view, data, &trace.Metrics{}); c.Rank() == 0 {
							res = r
						}
					})
					if err := e.Run(); err != nil {
						t.Fatal(err)
					}
					return res, e.Stats().Scheduled
				}
				flat, flatSeq := run(nil)
				ident, identSeq := run(identityLeaders)
				if !reflect.DeepEqual(flat, ident) || flatSeq != identSeq {
					t.Fatalf("case %d (%dx%d) %s %s: identity leaders diverge from flat:\nflat  %+v seq %d\nident %+v seq %d",
						i, nodes, cores, name, op, flat, flatSeq, ident, identSeq)
				}
				if flat.Bytes > 0 && flat.Rounds == 0 {
					t.Fatalf("case %d %s %s: moved %d bytes in no rounds", i, name, op, flat.Bytes)
				}
			}
		}
	}
}

// TestFunnelSendDoesNotAllocate: the write round's intra-node hand-over
// — a mate's c.SendVal of its pieces and the leader's matching receive —
// is free of garbage once the mailbox exists. The payload is a pointer
// to the collective's own packed field; the slice itself would be boxed
// (one object per rank per round, the largest allocation site of a
// two-layer run before it was removed).
func TestFunnelSendDoesNotAllocate(t *testing.T) {
	e, m, _ := testRig(t, 1, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 100
	plan := &Plan{
		LeaderOf: []int{0, 0},
		Domains:  []Domain{{Agg: 0, Windows: []datatype.Segment{{Off: 0, Len: 64}}}},
	}
	w.Start(func(c *mpi.Comm) {
		x := &collective{c: c, plan: plan, topo: newTopology(c.Rank(), plan.LeaderOf)}
		x.packed = []domPiece{{shufflePiece: shufflePiece{segs: datatype.List{{Off: 0, Len: 64}}, data: buffer.NewPhantom(64)}}}
		if x.topo.leads() {
			for r := 0; r <= rounds; r++ { // AllocsPerRun warms up with one extra call
				x.rs.mates.steps = append(x.rs.mates.steps, step{r: int32(r)})
			}
			for r := 0; r <= rounds; r++ {
				x.funnel(r, 0, 64)
				if got := x.bundles[1][0].data.Len(); got != 64 {
					t.Fatalf("leader received a %d-byte piece, want 64", got)
				}
			}
			return
		}
		r := 0
		if n := testing.AllocsPerRun(rounds, func() { x.funnel(r, 0, 64); r++ }); n != 0 {
			t.Errorf("a funnel round allocates %v objects, want 0", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGatherViewsSendDoesNotAllocate: a mate's half of the upfront view
// gather — its c.SendVal of its view and the leader's matching receive
// — is free of garbage once the mailbox exists. The payload is a pointer to the collective's own view
// field, as funnel's is; boxing the message by value would allocate once
// per mate per two-layer collective.
func TestGatherViewsSendDoesNotAllocate(t *testing.T) {
	e, m, _ := testRig(t, 1, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 100
	view := datatype.List{{Off: 64, Len: 64}}
	w.Start(func(c *mpi.Comm) {
		x := &collective{c: c, topo: newTopology(c.Rank(), []int{0, 0}), view: segsVal{view}}
		if x.topo.leads() {
			for i := 0; i <= calls; i++ { // AllocsPerRun warms up with one extra call
				// gatherViews' receive, without the views array it fills
				// once per collective
				if got := c.RecvVal(1, viewTag).(*segsVal).segs; !slices.Equal(got, view) {
					t.Fatalf("leader gathered %v, want %v", got, view)
				}
			}
			return
		}
		if n := testing.AllocsPerRun(calls, func() { x.topo.gatherViews(c, &x.view) }); n != 0 {
			t.Errorf("a mate's view gather allocates %v objects, want 0", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
