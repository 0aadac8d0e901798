package mpi

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// sparseStage is one Stage call of a differential round.
type sparseStage struct {
	dst int
	v   int
	n   int64
}

// delivery is one value a rank received in a round, in Received order.
type delivery struct{ src, v int }

// sparseRounds draws rounds of random stage calls for p ranks: each
// rank stages to a few random members, itself sometimes, and restages
// some destinations with a new value; in every round one rank stages
// to all members, so every mask word is exercised.
func sparseRounds(rng *rand.Rand, p, rounds int) [][][]sparseStage {
	out := make([][][]sparseStage, rounds)
	for k := range out {
		out[k] = make([][]sparseStage, p)
		dense := rng.IntN(p)
		for src := range p {
			var dsts []int
			if src == dense {
				dsts = rng.Perm(p)
			} else {
				for range rng.IntN(5) {
					dsts = append(dsts, rng.IntN(p))
				}
				if rng.IntN(4) == 0 {
					dsts = append(dsts, src)
				}
			}
			for i, dst := range dsts {
				out[k][src] = append(out[k][src], sparseStage{dst: dst, v: (k*p+src)*p + dst + i*p*p*rounds, n: int64(rng.IntN(3)) << 12})
			}
		}
	}
	return out
}

// coroutineSparse is the reference the engine-driven SparseExchange is
// checked against: the pairwise exchange as it runs on the caller's
// stack, one blocking send and one blocking receive per step through
// the ranks' receive queues, over p-length arrays (vals[i] non-nil:
// send it, charged at bytes[i]; present[i]: expect one from i). Nothing
// outside tests calls it.
func coroutineSparse(c *Comm, out, vals []any, bytes []int64, present []bool) {
	p := len(c.group)
	const tag = tagAlltoall
	sp := c.Tracer().Begin(obs.PhaseMPIAlltoall, c.traceLoc())
	var sent, pairs int64
	clear(out)
	if vals[c.rank] != nil {
		out[c.rank] = vals[c.rank]
		if bytes[c.rank] > 0 {
			c.w.intraPaths[c.NodeOf(c.rank)].Transfer(c.p, bytes[c.rank])
			sent += bytes[c.rank]
			pairs++
		}
	}
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		if vals[dst] != nil {
			c.isend(dst, tag, vals[dst], bytes[dst])
			sent += bytes[dst]
			pairs++
		}
		if present[src] {
			out[src] = c.irecv(src, tag)
		}
	}
	sp.EndBytes(sent, pairs)
	c.w.met.alltoalls.Inc()
	c.w.met.alltoallBytes.Add(float64(sent))
}

// sparseCase is one randomly drawn differential scenario, a pure
// function of its seed.
type sparseCase struct {
	procs, cores int
	zeroLat      bool // latency-free links: zero-byte sends take no time at all
	rounds       [][][]sparseStage
	skew         [][]float64 // [round][rank] sleep before the round
	spec         *faults.Spec
}

// drawSparseCase draws a case. Layouts run from every rank on one node
// to one rank per node; a third of the cases are latency-free, half
// carry a fault schedule with message delays and slow links.
func drawSparseCase(seed uint64) sparseCase {
	r := rand.New(rand.NewPCG(seed, 42))
	k := sparseCase{procs: []int{2, 5, 17, 64, 65, 130}[r.IntN(6)], zeroLat: r.IntN(3) == 0}
	switch r.IntN(3) {
	case 0:
		k.cores = k.procs // all intra-node
	case 1:
		k.cores = 1 // one rank per node
	default:
		k.cores = 2 + r.IntN(7)
	}
	k.rounds = sparseRounds(r, k.procs, 2+r.IntN(3))
	for range k.rounds {
		skew := make([]float64, k.procs)
		if r.IntN(2) == 0 { // otherwise back to back
			for rank := range skew {
				if r.IntN(3) == 0 {
					skew[rank] = r.Float64() * 1e-4
				}
			}
		}
		k.skew = append(k.skew, skew)
	}
	if r.IntN(2) == 0 {
		nodes := (k.procs + k.cores - 1) / k.cores
		spec := faults.Spec{Seed: seed, Messages: faults.MessageSpec{DelayRate: 0.3, DelayMeanSec: 5e-5}}
		for n := 0; n < nodes; n++ {
			if r.IntN(3) == 0 {
				from := r.Float64() * 1e-4
				spec.SlowLinks = append(spec.SlowLinks, faults.SlowLink{
					Node: n, Factor: 1 + 7*r.Float64(), FromSec: from, UntilSec: from + r.Float64()*2e-4,
				})
			}
		}
		k.spec = &spec
	}
	return k
}

// sparseRun is everything the task and its reference must agree on.
type sparseRun struct {
	Returns   [][]float64    // [rank][round] virtual time the exchange returned
	Received  [][][]delivery // [rank][round] what it delivered, in Received order
	Links     []resource.LinkStats
	Scheduled uint64 // the engine's final tie-break sequence
	Inline    uint64 // clock advances taken without an event
	Delays    int64  // fault delays drawn
}

// run executes the case's rounds with the engine task (task true) or
// the coroutine reference. The task side alternates the SparseExchange
// API and its AlltoallSparseInto wrapper round by round.
func (k sparseCase) run(t *testing.T, task bool) sparseRun {
	t.Helper()
	w, e, sched := caseWorld(t, (k.procs+k.cores-1)/k.cores, k.cores, k.procs, k.zeroLat, k.spec)
	p := k.procs
	out := sparseRun{Returns: make([][]float64, p), Received: make([][][]delivery, p)}
	w.Start(func(c *Comm) {
		me := c.Rank()
		res, vals, bytes, present := make([]any, p), make([]any, p), make([]int64, p), make([]bool, p)
		for ri, round := range k.rounds {
			if d := k.skew[ri][me]; d > 0 {
				c.Proc().Sleep(d)
			}
			var recv []delivery
			if task && ri%2 == 0 {
				x := c.SparseScratch()
				x.Reset()
				for src, stages := range round {
					for _, s := range stages {
						if src == me {
							x.Stage(s.dst, s.v, s.n)
						} else if s.dst == me {
							x.Expect(src)
						}
					}
				}
				x.Exchange()
				x.Received(func(src int, v any) { recv = append(recv, delivery{src, v.(int)}) })
			} else {
				clear(vals)
				clear(present)
				for src, stages := range round {
					for _, s := range stages {
						if src == me {
							vals[s.dst], bytes[s.dst] = s.v, s.n
						} else if s.dst == me {
							present[src] = true
						}
					}
				}
				if task {
					c.AlltoallSparseInto(res, vals, bytes, present)
				} else {
					coroutineSparse(c, res, vals, bytes, present)
				}
				for src, v := range res {
					if v != nil {
						recv = append(recv, delivery{src, v.(int)})
					}
				}
			}
			out.Returns[me] = append(out.Returns[me], c.Now())
			out.Received[me] = append(out.Received[me], recv)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.Links = linkLoads(w.Machine())
	st := e.Stats()
	out.Scheduled, out.Inline, out.Delays = st.Scheduled, st.Inline, sched.Injected()
	return out
}

// TestSparseExchangeMatchesAlltoallSparseInto is the trajectory
// contract of the engine-driven sparse exchange: over random rounds —
// self-stages, restages to one destination, a dense sender per round —
// on layouts from one node to one rank per node, with latency-free
// links (same-instant arrivals), skewed and back-to-back entries and
// fault schedules whose message delays land messages out of send order,
// the task (through SparseExchange and through AlltoallSparseInto) must
// return at the same virtual instants as the coroutine reference,
// deliver the same value from every source in the same order, load
// every link identically, and schedule and inline exactly as many
// steps.
func TestSparseExchangeMatchesAlltoallSparseInto(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 15
	}
	var delayed, zeroLat, intra, spread int
	for seed := uint64(1); seed <= uint64(cases); seed++ {
		k := drawSparseCase(seed)
		want := k.run(t, false)
		got := k.run(t, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d procs, %d cores/node, latency-free %v, faults %v): task diverged from its coroutine reference\n%s",
				seed, k.procs, k.cores, k.zeroLat, k.spec != nil, firstSparseDiff(got, want))
		}
		if want.Delays > 0 {
			delayed++
		}
		if k.zeroLat {
			zeroLat++
		}
		switch k.cores {
		case k.procs:
			intra++
		case 1:
			spread++
		}
	}
	// The draw must actually reach the paths the contract is about.
	if delayed == 0 || zeroLat == 0 || intra == 0 || spread == 0 {
		t.Fatalf("coverage: %d with delays drawn, %d latency-free, %d on one node, %d one rank per node, of %d cases", delayed, zeroLat, intra, spread, cases)
	}
}

// firstSparseDiff names the first field two runs disagree on.
func firstSparseDiff(got, want sparseRun) string {
	for rank := range want.Returns {
		for k := range want.Returns[rank] {
			if got.Returns[rank][k] != want.Returns[rank][k] {
				return fmt.Sprintf("rank %d round %d returned at %v, want %v", rank, k, got.Returns[rank][k], want.Returns[rank][k])
			}
			if !slices.Equal(got.Received[rank][k], want.Received[rank][k]) {
				return fmt.Sprintf("rank %d round %d delivered %v, want %v", rank, k, got.Received[rank][k], want.Received[rank][k])
			}
		}
	}
	for i := range want.Links {
		if got.Links[i] != want.Links[i] {
			return fmt.Sprintf("link %+v, want %+v", got.Links[i], want.Links[i])
		}
	}
	return fmt.Sprintf("scheduled %d inline %d delays %d, want %d %d %d", got.Scheduled, got.Inline, got.Delays, want.Scheduled, want.Inline, want.Delays)
}

// TestSparseExchangeParksEachRankAtMostOnce is the census tripwire: a
// 360-rank exchange in which every rank sends to eight partners and
// receives from eight parks each rank at most once, where the coroutine
// parked it about once per message sent and received.
func TestSparseExchangeParksEachRankAtMostOnce(t *testing.T) {
	const p, partners = 360, 8
	_, e := testbedWorld(t, p, func(c *Comm) {
		x := c.SparseScratch()
		x.Reset()
		for k := 1; k <= partners; k++ {
			x.Stage((c.Rank()+k*37)%p, k, 1<<12)
			x.Expect((c.Rank() - k*37 + p*partners) % p)
		}
		x.Exchange()
		n := 0
		x.Received(func(int, any) { n++ })
		if n != partners {
			t.Errorf("rank %d received %d values, want %d", c.Rank(), n, partners)
		}
	})
	if st := e.Stats(); st.Parks > p {
		t.Errorf("%d-rank sparse exchange parked %d times, want at most one per rank", p, st.Parks)
	} else if st.Callbacks < p*partners {
		t.Errorf("census counted %d callbacks for %d messages: the steps are not running as callbacks", st.Callbacks, p*partners)
	}
}

// TestUnmatchedExpectDeadlockNamesTheStep: a rank that expects a value
// nobody stages is parked once for the whole exchange, so the deadlock
// report must name the communicator, the rank, how far the exchange got
// and the source it waits on.
func TestUnmatchedExpectDeadlockNamesTheStep(t *testing.T) {
	const p = 4
	e := simtime.NewEngine()
	w, err := NewWorld(e, testMachine(t, 2, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(c *Comm) {
		x := c.SparseScratch()
		x.Reset()
		x.Stage((c.Rank()+1)%p, c.Rank(), 8)
		x.Expect((c.Rank() + p - 1) % p)
		if c.Rank() == 2 {
			x.Expect(0) // rank 0 stages nothing for rank 2
		}
		x.Exchange()
	})
	dl, ok := e.Run().(*simtime.DeadlockError)
	if !ok {
		t.Fatal("an Expect with no matching Stage did not report deadlock")
	}
	want := "rank2 (waiting: sparse exchange #1 on comm1: rank 2 of 4 at step 2 of 4, receiving from rank 0)"
	if got := strings.Join(dl.Blocked, "\n"); got != want {
		t.Errorf("deadlock report:\n%s\nwant:\n%s", got, want)
	}
}

// TestSparseScratchSizedByMaskWords pins the scratch footprint: on a
// 9,600-member communicator a new SparseExchange holds its bitmasks and
// a constant, not p-length arrays — what every rank of every collective
// holds at extreme scale.
func TestSparseScratchSizedByMaskWords(t *testing.T) {
	const p, n = 9600, 64
	c := benchComm(5, p)
	keep := make([]*SparseExchange, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = newSparseExchange(c)
	}
	runtime.ReadMemStats(&after)
	// TotalAlloc only ever grows, so one delta of it cannot wrap; what the
	// race detector's runtime allocates meanwhile only raises it.
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if limit := uint64(3*((p+63)/64)*8 + 512); per > limit {
		t.Fatalf("newSparseExchange on %d members allocates %d bytes, want at most %d", p, per, limit)
	}
}
