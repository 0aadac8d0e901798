package mpi

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// coroutineAllgather is the ring as it ran before it became an
// engine-driven task: on the caller's stack, one blocking send and one
// blocking receive per step through the 63 per-step mailboxes. It is
// kept as the reference TestRingTaskMatchesCoroutineRing holds
// Comm.Allgather to; nothing outside tests calls it.
func coroutineAllgather(c *Comm, v any, bytes int64) []any {
	p := len(c.group)
	out := make([]any, p)
	out[c.rank] = v
	if p == 1 {
		return out
	}
	const tag = tagAllgather
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendIdx := (c.rank - step + p) % p
		recvIdx := (c.rank - step - 1 + p) % p
		c.isend(right, tag+stepTag(step), out[sendIdx], bytes)
		out[recvIdx] = c.irecv(left, tag+stepTag(step))
	}
	return out
}

// ringImpl is one side of the differential test.
type ringImpl struct {
	allgather func(c *Comm, v any, bytes int64) []any
	split     func(c *Comm, color, key int) *Comm
}

var (
	taskRing = ringImpl{
		allgather: (*Comm).Allgather,
		split:     (*Comm).Split,
	}
	coroutineRing = ringImpl{
		allgather: coroutineAllgather,
		split: func(c *Comm, color, key int) *Comm {
			return c.splitFrom(coroutineAllgather(c, splitInfo{color: color, key: key, rank: c.rank}, splitInfoBytes), color)
		},
	}
)

// ringCase is one randomly drawn scenario, a pure function of its seed.
type ringCase struct {
	nodes, cores, procs int
	zeroLat             bool // latency-free links: zero-byte blocks take no time at all
	colors              int  // sub-communicators per Split
	sizes               []int64
	skew                [][]float64 // [op][rank] sleep before the op
	spec                *faults.Spec
}

func drawRingCase(seed uint64) ringCase {
	r := stats.NewRNG(seed)
	var k ringCase
	k.cores = 1 + r.Intn(6)
	k.procs = 2 + r.Intn(40)
	k.nodes = (k.procs+k.cores-1)/k.cores + r.Intn(2)
	k.zeroLat = r.Intn(4) == 0
	k.colors = 1 + r.Intn(4)
	ops := 3 + r.Intn(4)
	for i := 0; i < ops; i++ {
		switch r.Intn(4) {
		case 0:
			k.sizes = append(k.sizes, 0)
		case 1:
			k.sizes = append(k.sizes, 8)
		default:
			k.sizes = append(k.sizes, int64(1+r.Intn(1<<18)))
		}
		skew := make([]float64, k.procs)
		if r.Intn(3) != 0 { // otherwise back to back
			for rank := range skew {
				if r.Intn(3) == 0 {
					skew[rank] = r.Float64() * 1e-3
				}
			}
		}
		k.skew = append(k.skew, skew)
	}
	if r.Intn(2) == 0 {
		spec := faults.Spec{Seed: seed, Messages: faults.MessageSpec{DelayRate: 0.2, DelayMeanSec: 2e-4}}
		for n := 0; n < k.nodes; n++ {
			if r.Intn(3) == 0 {
				from := r.Float64() * 1e-3
				spec.SlowLinks = append(spec.SlowLinks, faults.SlowLink{
					Node: n, Factor: 1 + 7*r.Float64(), FromSec: from, UntilSec: from + r.Float64()*2e-3,
				})
			}
		}
		k.spec = &spec
	}
	return k
}

// ringRun is everything the two implementations must agree on.
type ringRun struct {
	Returns [][]float64 // [rank][op] virtual time the op returned
	Results [][][]any   // [rank][op] what it returned
	Links   []resource.LinkStats
	Events  uint64 // the engine's final tie-break sequence
	Delays  int64  // fault delays drawn
}

// run executes the case's program with one implementation: per op a
// skewed entry, a world allgather, then — alternating — a Split with an
// allgather on the sub-communicator, or coroutine collectives (Barrier,
// Bcast, point-to-point) that share links and instants with the ring.
func (k ringCase) run(t *testing.T, impl ringImpl) ringRun {
	t.Helper()
	cfg := cluster.Config{
		Nodes: k.nodes, CoresPerNode: k.cores,
		MemPerNode: 64 * cluster.MiB,
		MemBusBW:   1e10, MemBusLat: 1e-7,
		NICBW: 1e9, NICLat: 1e-6,
		BisectionBW: 1e10, BisectionLat: 1e-6,
		IONetBW: 1e9,
	}
	if k.zeroLat {
		cfg.MemBusLat, cfg.NICLat, cfg.BisectionLat = 0, 0, 0
	}
	m, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := simtime.NewEngine()
	w, err := NewWorld(e, m, k.procs)
	if err != nil {
		t.Fatal(err)
	}
	var sched *faults.Schedule
	if k.spec != nil {
		if sched, err = faults.NewSchedule(*k.spec); err != nil {
			t.Fatal(err)
		}
		w.SetFaults(sched)
	}
	out := ringRun{Returns: make([][]float64, k.procs), Results: make([][][]any, k.procs)}
	w.Start(func(c *Comm) {
		rank := c.Rank()
		record := func(res []any) {
			out.Returns[rank] = append(out.Returns[rank], c.Now())
			out.Results[rank] = append(out.Results[rank], res)
		}
		for op, size := range k.sizes {
			if d := k.skew[op][rank]; d > 0 {
				c.Proc().Sleep(d)
			}
			record(impl.allgather(c, rank*1000+op, size))
			if op%2 == 0 {
				// Reverse the member order inside each colour, so the
				// sub-ring's neighbours differ from the world ring's.
				sub := impl.split(c, rank%k.colors, -rank)
				record([]any{sub.Rank(), sub.Size()})
				record(impl.allgather(sub, fmt.Sprintf("%d/%d", rank, op), size/2))
				record(impl.allgather(sub, rank, 8)) // back to back, another size
				continue
			}
			c.Barrier()
			record([]any{c.Bcast(op%k.procs, op, 64)})
			if peer := rank ^ 1; peer < k.procs {
				c.SendVal(peer, 3, rank, size)
				record([]any{c.RecvVal(peer, 3)})
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < m.NumNodes(); n++ {
		node := m.Node(n)
		out.Links = append(out.Links, node.MemBus.Stats(), node.NICTx.Stats(), node.NICRx.Stats())
	}
	out.Links = append(out.Links, m.Bisection().Stats())
	out.Events = e.Stats().Scheduled
	out.Delays = sched.Injected()
	return out
}

// TestRingTaskMatchesCoroutineRing is the trajectory contract of the
// engine-driven allgather: over random communicator shapes, payload
// sizes, skewed and back-to-back entries, sub-communicators and fault
// schedules, it must return the same values at the same virtual
// instants as the coroutine ring, load every link identically, and
// schedule exactly as many events — the last being what makes "same
// (at, seq)" more than a figure of speech.
func TestRingTaskMatchesCoroutineRing(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 20
	}
	var faulted, delayed, zeroLat int
	for seed := uint64(1); seed <= uint64(cases); seed++ {
		k := drawRingCase(seed)
		want := k.run(t, coroutineRing)
		got := k.run(t, taskRing)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d procs, %d cores/node, sizes %v, faults %v): task ring diverged from the coroutine ring\n%s",
				seed, k.procs, k.cores, k.sizes, k.spec != nil, firstRingDiff(got, want))
		}
		if k.spec != nil {
			faulted++
		}
		if want.Delays > 0 {
			delayed++
		}
		if k.zeroLat {
			zeroLat++
		}
	}
	// The draw must actually reach the paths the contract is about.
	if faulted == 0 || delayed == 0 || zeroLat == 0 {
		t.Fatalf("coverage: %d faulted, %d with delays drawn, %d latency-free of %d cases", faulted, delayed, zeroLat, cases)
	}
}

// firstRingDiff names the first field two runs disagree on.
func firstRingDiff(got, want ringRun) string {
	for rank := range want.Returns {
		for op := range want.Returns[rank] {
			if op >= len(got.Returns[rank]) {
				return fmt.Sprintf("rank %d recorded %d ops, want %d", rank, len(got.Returns[rank]), len(want.Returns[rank]))
			}
			if got.Returns[rank][op] != want.Returns[rank][op] {
				return fmt.Sprintf("rank %d op %d returned at %v, want %v", rank, op, got.Returns[rank][op], want.Returns[rank][op])
			}
			if !reflect.DeepEqual(got.Results[rank][op], want.Results[rank][op]) {
				return fmt.Sprintf("rank %d op %d returned %v, want %v", rank, op, got.Results[rank][op], want.Results[rank][op])
			}
		}
	}
	for i := range want.Links {
		if got.Links[i] != want.Links[i] {
			return fmt.Sprintf("link %+v, want %+v", got.Links[i], want.Links[i])
		}
	}
	return fmt.Sprintf("events %d delays %d, want %d %d", got.Events, got.Delays, want.Events, want.Delays)
}

// ringWorld runs body on p ranks of the paper's testbed (12 to a node)
// and returns the world
// and its engine.
func ringWorld(tb testing.TB, p int, body func(*Comm)) (*World, *simtime.Engine) {
	tb.Helper()
	m, err := cluster.New(cluster.TestbedConfig((p + 11) / 12))
	if err != nil {
		tb.Fatal(err)
	}
	e := simtime.NewEngine()
	w, err := NewWorld(e, m, p)
	if err != nil {
		tb.Fatal(err)
	}
	w.Start(body)
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return w, e
}

// TestAllgatherParksEachRankAtMostOnce is the census tripwire: the
// coroutine ring parked a 360-rank allgather about 2·p·(p−1) ≈ 258,000
// times; the task parks the owning process once, however many steps it
// waits through.
func TestAllgatherParksEachRankAtMostOnce(t *testing.T) {
	const p = 360
	v := any(1)
	_, e := ringWorld(t, p, func(c *Comm) { c.Allgather(v, 8) })
	st := e.Stats()
	if st.Parks > p {
		t.Fatalf("%d-rank allgather parked %d times, want at most one per rank", p, st.Parks)
	}
	if st.Callbacks < p*(p-1) {
		t.Fatalf("census counted %d callbacks for %d ring messages: the steps are not running as callbacks", st.Callbacks, p*(p-1))
	}
}

// TestAllgatherAllocationsIndependentOfSize pins the per-call cost: the
// result slice, and nothing that grows with p or with the call count —
// the task record and its bound step function are per communicator, the
// inbox queues reach a steady size, and no mailbox is ever created.
func TestAllgatherAllocationsIndependentOfSize(t *testing.T) {
	v := any(1)
	mallocs := func(p, calls int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, _ := ringWorld(t, p, func(c *Comm) {
			for i := 0; i < calls; i++ {
				c.Allgather(v, 8)
			}
		})
		runtime.ReadMemStats(&after)
		if n := len(w.boxes); n != 0 {
			t.Fatalf("allgather created %d mailboxes", n)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, p := range []int{60, 240} {
		// The difference of two run lengths cancels world set-up.
		const short, long = 4, 12
		perCall := float64(mallocs(p, long)-mallocs(p, short)) / float64((long-short)*p)
		if perCall > 1.5 {
			t.Errorf("%d ranks: %.2f allocations per rank per allgather, want the result slice only", p, perCall)
		}
	}
}

// TestMismatchedAllgatherDeadlockNamesTheStep: a rank stuck inside the
// task is parked once for the whole collective, so the deadlock report
// must say how far the ring got, not just that it is an allgather.
func TestMismatchedAllgatherDeadlockNamesTheStep(t *testing.T) {
	e := simtime.NewEngine()
	m := testMachine(t, 1, 3)
	w, err := NewWorld(e, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(c *Comm) {
		if c.Rank() != 1 {
			c.Allgather(c.Rank(), 8) // rank 1 never joins
		}
	})
	dl, ok := e.Run().(*simtime.DeadlockError)
	if !ok {
		t.Fatal("mismatched allgather did not report deadlock")
	}
	got := strings.Join(dl.Blocked, "\n")
	for _, want := range []string{
		"rank0 (waiting: allgather #1 on comm1: rank 0 of 3 at step 1, receiving from rank 2)",
		"rank2 (waiting: allgather #1 on comm1: rank 2 of 3 at step 0, receiving from rank 1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("deadlock report lacks %q:\n%s", want, got)
		}
	}
}

// BenchmarkAllgather is the host cost of one ring allgather at the three
// machine sizes the experiments use; ns/op ÷ p² is the per-message cost
// the benchmark ledger reports as mpi.allgather_ns_per_pair.
func BenchmarkAllgather(b *testing.B) {
	v := any(1)
	for _, p := range []int{120, 360, 1080} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			ringWorld(b, p, func(c *Comm) {
				for i := 0; i < b.N; i++ {
					c.Allgather(v, 8)
				}
			})
		})
	}
}
