package collio

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datatype"
	"repro/internal/faults"
	"repro/internal/workload"
)

// walkSchedule is the round schedule by brute force: every (round,
// domain) from from on whose window one of views intersects, every
// (round, mate) whose view in mates intersects some domain's window,
// and every (round, requester) whose segments intersect mine's window,
// found by probing window(di, r) for every pair.
func walkSchedule(o *overlay, from int, views, mates []datatype.List, mine *aggState) (doms, ms, reqs []step) {
	end := 0
	for di := range o.doms {
		end = max(end, o.end(di))
	}
	for r := from; r < end; r++ {
		meets := func(v datatype.List, di int) bool {
			w, ok := o.window(di, r)
			return ok && v.Intersects(w.Off, w.End())
		}
		for di := range o.doms {
			if slices.ContainsFunc(views, func(v datatype.List) bool { return meets(v, di) }) {
				doms = append(doms, step{r: int32(r), i: int32(di)})
			}
		}
		for i, v := range mates {
			for di := range o.doms {
				if meets(v, di) {
					ms = append(ms, step{r: int32(r), i: int32(i)})
					break
				}
			}
		}
		if mine == nil {
			continue
		}
		if w, ok := o.window(mine.di, r); ok {
			for i, en := range mine.reqOrder {
				if en.segs.Intersects(w.Off, w.End()) {
					reqs = append(reqs, step{r: int32(r), i: int32(i)})
				}
			}
		}
	}
	return doms, ms, reqs
}

// scheduleCase is one plan, the views of its ranks and what can fail.
type scheduleCase struct {
	plan   *Plan
	views  []datatype.List
	nodeOf func(rank int) int
	spec   faults.Spec
}

// layoutCase draws a real layout — IOR, a strided vector, 2-D tiles or
// random requests — on nodes x cores ranks, plans it as TwoPhase does
// under per-node memory drawn with σ around a nominal buffer, and
// stamps no leader map, the lowest-rank one or a random election with
// succession lines.
func layoutCase(rng *rand.Rand) scheduleCase {
	nodes, cores := 1+rng.Intn(4), 1+rng.Intn(4)
	n := nodes * cores
	var wl interface{ View(rank int) datatype.List }
	switch rng.Intn(4) {
	case 0:
		wl = workload.IOR{Ranks: n, BlockSize: int64(1+rng.Intn(8)) << 6, Segments: 1 + rng.Intn(4)}
	case 1:
		wl = stridedVector{datatype.Vector{Count: int64(1 + rng.Intn(6)), BlockLen: int64(1 + rng.Intn(64)), Stride: int64(n) * 64}}
	case 2:
		wl = workload.Tile2D{Rows: int64(nodes) * 6, Cols: int64(cores) * 5, TilesX: int64(nodes), TilesY: int64(cores), Elem: 8}
	default:
		wl = workload.Random{Ranks: n, SegsPerRank: rng.Intn(5), SegLen: 32, FileSize: 4 << 10, Seed: rng.Uint64()}
	}
	views := make([]datatype.List, n)
	for r := range views {
		views[r] = wl.View(r)
	}
	exts := make([]Ext, n)
	nodeOf := make([]int, n)
	avail := make([]int64, n)
	nominal, sigma := int64(256), 1+rng.Float64()*2
	nodeAvail := make([]int64, nodes)
	for i := range nodeAvail {
		nodeAvail[i] = max(int64(float64(nominal)*(1+sigma*rng.NormFloat64())), nominal/4)
	}
	for r, v := range views {
		lo, hi := v.Extent()
		exts[r], nodeOf[r], avail[r] = Ext{Lo: lo, Hi: hi}, r/cores, nodeAvail[r/cores]
	}
	cb := int64(64 + rng.Intn(512))
	plan := TwoPhase{CBBuffer: cb}.PlanFromMeta(exts, nodeOf, avail)
	for i := range plan.Domains { // the buffer floors at BufFloor: redo the windows at test scale
		d := &plan.Domains[i]
		d.BufBytes = max(min(cb, avail[d.Agg]), 16)
		d.Windows = OffsetWindows(d.Lo, d.Hi, d.BufBytes)
	}
	switch rng.Intn(3) {
	case 1:
		plan.LeaderOf = LowestRankLeaders(nodeOf)
	case 2:
		plan.LeaderOf, plan.LeaderSucc = electLeaders(rng, nodes, cores)
	}
	return scheduleCase{plan: plan, views: views, nodeOf: func(r int) int { return r / cores }, spec: randomFaults(rng, nodes, n)}
}

// stridedVector places rank r's copy of a vector type 64 bytes after
// rank r-1's.
type stridedVector struct{ v datatype.Vector }

func (s stridedVector) View(rank int) datatype.List {
	return datatype.Normalize(s.v.Segments(nil, int64(rank)*64))
}

// electLeaders is a random election: each node's ranks in a random
// order, the first leading, the order its succession line.
func electLeaders(rng *rand.Rand, nodes, cores int) (leaderOf []int, succ [][]int) {
	leaderOf, succ = make([]int, nodes*cores), make([][]int, nodes*cores)
	for node := 0; node < nodes; node++ {
		line := rng.Perm(cores)
		for i := range line {
			line[i] += node * cores
		}
		for _, r := range line {
			leaderOf[r], succ[r] = line[0], line
		}
	}
	return leaderOf, succ
}

// randomFaults draws node deaths, which chain remerges when a taker
// dies after absorbing, and rank failures, which move leaders.
func randomFaults(rng *rand.Rand, nodes, ranks int) (spec faults.Spec) {
	for k := rng.Intn(4); k > 0; k-- {
		spec.NodeFailures = append(spec.NodeFailures, faults.NodeFailure{Node: rng.Intn(nodes), Round: rng.Intn(12)})
	}
	for k := rng.Intn(4); k > 0; k-- {
		spec.RankFailures = append(spec.RankFailures, faults.RankFailure{Rank: rng.Intn(ranks), Round: rng.Intn(12)})
	}
	return spec
}

// windowCase is randomFailoverCase's plan — irregular windows with
// holes, memory pressure, any remerge tree — with random views over
// its extent.
func windowCase(rng *rand.Rand) scheduleCase {
	p, cores, spec := randomFailoverCase(rng)
	var hi int64
	for _, d := range p.Domains {
		hi = max(hi, d.Hi)
	}
	views := make([]datatype.List, len(p.Exts))
	for r := range views {
		var segs datatype.List
		for k := rng.Intn(6); k > 0; k-- {
			segs = append(segs, datatype.Segment{Off: rng.Int63n(hi + 16), Len: 1 + rng.Int63n(48)})
		}
		views[r] = datatype.Normalize(segs)
		lo, vhi := views[r].Extent()
		p.Exts[r] = Ext{Lo: lo, Hi: vhi}
	}
	return scheduleCase{plan: p, views: views, nodeOf: func(r int) int { return r / cores }, spec: spec}
}

// reqOrderOf is what route() gathers for the aggregator of domain di:
// every rank's view clipped to the domain, when not empty, grouped by
// leader.
func reqOrderOf(o *overlay, di int, views []datatype.List) *aggState {
	d := &o.doms[di]
	mine := &aggState{di: di}
	for src, v := range views {
		if segs := v.Clip(d.Lo, d.Hi); len(segs) > 0 {
			mine.reqOrder = append(mine.reqOrder, reqEntry{src: src, segs: segs})
		}
	}
	tp := topology{leaderOf: o.leaderOf}
	slices.SortStableFunc(mine.reqOrder, func(a, b reqEntry) int { return cmp.Compare(tp.of(a.src), tp.of(b.src)) })
	return mine
}

// checkSchedules holds every rank's schedule from round from on, as a
// writer (its own view, and as a leader its mates' rounds) and as a
// reader (a leader's node views), to the window walk, and reads it back
// round by round.
func checkSchedules(o *overlay, from int, views []datatype.List) error {
	for me := range views {
		tp := newTopology(me, o.leaderOf)
		var mine *aggState
		if di := domainOf(o.doms, me); di >= 0 {
			mine = reqOrderOf(o, di, views)
		}
		var mates []datatype.List
		for _, m := range tp.mates {
			mates = append(mates, views[m])
		}
		for _, write := range []bool{true, false} {
			got := newRoundSchedule(o, from, views[me], mates, write, mine)
			doms, ms, reqs := walkSchedule(o, from, append([]datatype.List{views[me]}, mates...), nil, mine)
			if write {
				doms, ms, reqs = walkSchedule(o, from, views[me:me+1], mates, mine)
			}
			if !slices.Equal(got.doms.steps, doms) || !slices.Equal(got.mates.steps, ms) || !slices.Equal(got.reqs.steps, reqs) {
				return fmt.Errorf("rank %d with %d mate views, write %v, from round %d:\nschedule doms %v mates %v reqs %v\nwalk     doms %v mates %v reqs %v",
					me, len(mates), write, from, got.doms.steps, got.mates.steps, got.reqs.steps, doms, ms, reqs)
			}
			for _, l := range []struct {
				list *stepList
				want []step
			}{{&got.doms, doms}, {&got.mates, ms}} {
				var again []step
				for r := from; r < o.rounds; r++ {
					again = append(again, l.list.at(r)...)
					if !slices.Equal(l.list.at(r), l.list.at(r)) {
						return fmt.Errorf("rank %d: asking for round %d twice gave two answers", me, r)
					}
				}
				if !slices.Equal(again, l.want) {
					return fmt.Errorf("rank %d from round %d: read round by round %v, want %v", me, from, again, l.want)
				}
			}
		}
	}
	return nil
}

// TestRoundScheduleMatchesWindowWalk: the schedule route() builds —
// for every rank, as writer, write leader, read leader and aggregator —
// is exactly the window walk it replaces, from round 0 and from every
// round a failover reroutes at (and some it does not), on real layouts
// under memory σ and on irregular windows, with no leader map, the
// lowest-rank one and elected ones, through random failover sequences
// including chained remerges.
func TestRoundScheduleMatchesWindowWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var checks, rerouted, chained int
	for i := 0; i < 600; i++ {
		sc := layoutCase(rng)
		if i%2 == 1 {
			sc = windowCase(rng)
		}
		if err := sc.plan.Validate(len(sc.views)); err != nil {
			t.Fatalf("case %d: generator built an invalid plan: %v", i, err)
		}
		sched, err := faults.NewSchedule(sc.spec)
		if err != nil {
			t.Fatal(err)
		}
		o := newOverlay(sc.plan)
		for r := 0; r < o.rounds; r++ {
			var evs []FoEvent
			o, evs = failover(sched, sc.nodeOf, ident, sc.plan, o, r)
			if r > 0 && len(evs) == 0 && rng.Intn(4) > 0 {
				continue
			}
			if len(evs) > 0 {
				rerouted++
			}
			chained += unorderedRuns(&o)
			if err := checkSchedules(&o, r, sc.views); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			checks++
		}
	}
	if rerouted < 200 || chained == 0 {
		t.Errorf("%d checks, %d after a reroute, %d with an absorbed run out of file order: the generator no longer reaches failover or chained remerges",
			checks, rerouted, chained)
	}
}

// unorderedRuns counts the absorbed runs whose windows are not in file
// order — a chained remerge, which meet must scan rather than search.
func unorderedRuns(o *overlay) (n int) {
	for _, runs := range o.absorbed {
		for _, ru := range runs {
			if !slices.IsSortedFunc(ru.ws, func(a, b datatype.Segment) int { return cmp.Compare(a.Off, b.Off) }) {
				n++
			}
		}
	}
	return n
}
