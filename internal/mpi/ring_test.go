package mpi

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// The coroutine allgathers below are the references
// TestAllgatherTasksMatchCoroutines holds the engine tasks to: each
// algorithm as it would run on the caller's stack, one blocking send and
// one blocking receive per step on the 63 per-step tags, through the
// ranks' receive queues, carrying the real blocks. Nothing outside tests
// calls them.

// coroutineRing is the ring: step k passes one block to the right.
func coroutineRing(c *Comm, v any, bytes int64) []any {
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

// coroutineBruck is Bruck's allgather: blocks[i] is member rank+i's
// value, and step k sends the first min(2^k, p−2^k) blocks to rank−2^k
// and appends those of rank+2^k.
func coroutineBruck(c *Comm, v any, bytes int64) []any {
	p := len(c.group)
	blocks := []any{v}
	for k := 0; 1<<k < p; k++ {
		d := 1 << k
		n := min(d, p-d)
		c.isend((c.rank-d+p)%p, tagAllgather+stepTag(k), slices.Clone(blocks[:n]), int64(n)*bytes)
		blocks = append(blocks, c.irecv((c.rank+d)%p, tagAllgather+stepTag(k)).([]any)...)
	}
	out := make([]any, p)
	for i, b := range blocks {
		out[(c.rank+i)%p] = b
	}
	return out
}

// coroutineRecDoubling is recursive doubling for a power-of-two p: step
// k swaps the aligned run of 2^k blocks each side holds with rank XOR
// 2^k.
func coroutineRecDoubling(c *Comm, v any, bytes int64) []any {
	p := len(c.group)
	out := make([]any, p)
	out[c.rank] = v
	for k := 0; 1<<k < p; k++ {
		d := 1 << k
		peer, mine := c.rank^d, c.rank&^(d-1)
		c.isend(peer, tagAllgather+stepTag(k), slices.Clone(out[mine:mine+d]), int64(d)*bytes)
		copy(out[peer&^(d-1):], c.irecv(peer, tagAllgather+stepTag(k)).([]any))
	}
	return out
}

// coroutineAllgather selects among the references as Allgather does.
func coroutineAllgather(c *Comm, v any, bytes int64) []any {
	return [...]func(*Comm, any, int64) []any{
		agRing: coroutineRing, agBruck: coroutineBruck, agRecDoubling: coroutineRecDoubling,
	}[pickAllgather(len(c.group), bytes)](c, v, bytes)
}

// agImpl is one side of the differential test: an allgather, and Split
// on top of it.
type agImpl func(c *Comm, v any, bytes int64) []any

func (f agImpl) split(c *Comm, color, key int) *Comm {
	return c.splitFrom(f(c, splitInfo{color: color, key: key, rank: c.rank}, splitInfoBytes), color)
}

// forced is the engine task of one algorithm, whatever the size.
func forced(alg allgatherAlg) agImpl {
	return func(c *Comm, v any, bytes int64) []any { return c.allgather(v, bytes, alg) }
}

// agRows pairs each engine task with its coroutine reference. The
// selected row runs Allgather itself, so one program mixes algorithms
// call by call; recursive doubling alone needs power-of-two
// communicators.
var agRows = []struct {
	name      string
	task, ref agImpl
	pof2      bool
}{
	{"ring", forced(agRing), coroutineRing, false},
	{"bruck", forced(agBruck), coroutineBruck, false},
	{"recursive_doubling", forced(agRecDoubling), coroutineRecDoubling, true},
	{"selected", (*Comm).Allgather, coroutineAllgather, false},
}

// agCase is one randomly drawn scenario, a pure function of its seed.
type agCase struct {
	nodes, cores, procs int
	zeroLat             bool // latency-free links: zero-byte blocks take no time at all
	colors              int  // sub-communicators per Split
	sizes               []int64
	skew                [][]float64 // [op][rank] sleep before the op
	spec                *faults.Spec
}

// drawAgCase draws a case; with pof2 every communicator it builds has a
// power-of-two size. World block sizes fall on both sides of, and on,
// each of MPICH2's cutoffs.
func drawAgCase(seed uint64, pof2 bool) agCase {
	r := stats.NewRNG(seed)
	var k agCase
	k.cores = 1 + r.Intn(6)
	k.procs = 2 + r.Intn(40)
	k.colors = 1 + r.Intn(4)
	if pof2 || r.Intn(3) == 0 {
		k.procs = 2 << r.Intn(5)
		k.colors = 1 << r.Intn(3)
	}
	k.nodes = (k.procs+k.cores-1)/k.cores + r.Intn(2)
	k.zeroLat = r.Intn(4) == 0
	ops := 3 + r.Intn(4)
	for i := 0; i < ops; i++ {
		switch r.Intn(6) {
		case 0:
			k.sizes = append(k.sizes, 0)
		case 1:
			k.sizes = append(k.sizes, 8)
		case 2, 3:
			cut := []int64{allgatherShortMsg, allgatherLongMsg}[r.Intn(2)]
			k.sizes = append(k.sizes, max(0, cut/int64(k.procs)+int64(r.Intn(3)-1)))
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

// agRun is everything the two implementations must agree on.
type agRun struct {
	Returns [][]float64 // [rank][op] virtual time the op returned
	Results [][][]any   // [rank][op] what it returned
	Links   []resource.LinkStats
	Events  uint64 // the engine's final tie-break sequence
	Delays  int64  // fault delays drawn
}

// run executes the case's program with one implementation: per op a
// skewed entry, a world allgather, then — alternating — a Split with an
// allgather on the sub-communicator, or coroutine collectives (Barrier,
// Bcast, point-to-point) that share links and instants with the
// allgather.
func (k agCase) run(t *testing.T, impl agImpl) agRun {
	t.Helper()
	w, e, sched := caseWorld(t, k.nodes, k.cores, k.procs, k.zeroLat, k.spec)
	out := agRun{Returns: make([][]float64, k.procs), Results: make([][][]any, k.procs)}
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
			record(impl(c, rank*1000+op, size))
			if op%2 == 0 {
				// Reverse the member order inside each colour, so the
				// sub-communicator's peers differ from the world's.
				sub := impl.split(c, rank%k.colors, -rank)
				record([]any{sub.Rank(), sub.Size()})
				record(impl(sub, fmt.Sprintf("%d/%d", rank, op), size/2))
				record(impl(sub, rank, 8)) // back to back, another size
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
	out.Links = linkLoads(w.Machine())
	out.Events = e.Stats().Scheduled
	out.Delays = sched.Injected()
	return out
}

// TestAllgatherTasksMatchCoroutines is the trajectory contract of the
// engine-driven allgathers: for each algorithm, over random communicator
// shapes, block sizes, skewed and back-to-back entries, sub-communicators
// and fault schedules, the task must return the same values at the same
// virtual instants as its coroutine reference, load every link
// identically, and schedule exactly as many events — the last being what
// makes "same (at, seq)" more than a figure of speech.
func TestAllgatherTasksMatchCoroutines(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 20
	}
	for _, row := range agRows {
		t.Run(row.name, func(t *testing.T) {
			var faulted, delayed, zeroLat int
			picked := map[allgatherAlg]bool{}
			for seed := uint64(1); seed <= uint64(cases); seed++ {
				k := drawAgCase(seed, row.pof2)
				want := k.run(t, row.ref)
				got := k.run(t, row.task)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d (%d procs, %d cores/node, sizes %v, faults %v): task diverged from its coroutine reference\n%s",
						seed, k.procs, k.cores, k.sizes, k.spec != nil, firstAgDiff(got, want))
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
				for _, size := range k.sizes {
					picked[pickAllgather(k.procs, size)] = true
				}
			}
			// The draw must actually reach the paths the contract is about.
			if faulted == 0 || delayed == 0 || zeroLat == 0 {
				t.Fatalf("coverage: %d faulted, %d with delays drawn, %d latency-free of %d cases", faulted, delayed, zeroLat, cases)
			}
			if row.name == "selected" && len(picked) != 3 {
				t.Fatalf("coverage: world allgathers selected only %v", picked)
			}
		})
	}
}

// TestPickAllgatherAtCutoffs pins MPICH2's rule at the edges of its two
// cutoffs, which are exclusive: a total equal to one is not below it.
func TestPickAllgatherAtCutoffs(t *testing.T) {
	for _, c := range []struct {
		p     int
		bytes int64
		want  allgatherAlg
	}{
		{2, 0, agRecDoubling},
		{64, allgatherLongMsg/64 - 1, agRecDoubling},
		{64, allgatherLongMsg / 64, agRing},
		{1024, 511, agRecDoubling},
		{1024, 512, agRing},
		{3, 0, agBruck},
		{5, allgatherShortMsg / 5, agRing},
		{5, allgatherShortMsg/5 - 1, agBruck},
		{360, 227, agBruck}, // 81,720 B
		{360, 228, agRing},  // 82,080 B
		{9600, 8, agBruck},  // 76,800 B
		{9600, 12, agRing},  // 115,200 B: a 9,600-rank Split runs the ring
		{9600, 48, agRing},
	} {
		if got := pickAllgather(c.p, c.bytes); got != c.want {
			t.Errorf("pickAllgather(%d, %d) = %v, want %v", c.p, c.bytes, got, c.want)
		}
	}
}

// firstAgDiff names the first field two runs disagree on.
func firstAgDiff(got, want agRun) string {
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

// testbedWorld runs body on p ranks of the paper's testbed (12 to a
// node) and returns the world and its engine.
func testbedWorld(tb testing.TB, p int, body func(*Comm)) (*World, *simtime.Engine) {
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

// TestAllgatherParksEachRankAtMostOnce is the census tripwire: a
// coroutine ring parked a 360-rank allgather about 2·p·(p−1) ≈ 258,000
// times; a task parks the owning process once, however many steps it
// waits through. The steps themselves are callbacks, O(p log p) of them
// for a short total and p(p−1) or more for a long one, which still runs
// the ring.
func TestAllgatherParksEachRankAtMostOnce(t *testing.T) {
	v := any(1)
	for _, c := range []struct {
		p     int
		bytes int64
		alg   allgatherAlg
	}{
		{360, 8, agBruck},
		{256, 8, agRecDoubling},
		{360, 1024, agRing},
	} {
		if got := pickAllgather(c.p, c.bytes); got != c.alg {
			t.Fatalf("%d ranks × %d B selects %v, want %v", c.p, c.bytes, got, c.alg)
		}
		_, e := testbedWorld(t, c.p, func(comm *Comm) { comm.Allgather(v, c.bytes) })
		st := e.Stats()
		if st.Parks > uint64(c.p) {
			t.Errorf("%d-rank %v allgather parked %d times, want at most one per rank", c.p, c.alg, st.Parks)
		}
		steps := c.alg.steps(c.p)
		if c.alg == agRing && st.Callbacks < uint64(c.p*steps) {
			t.Errorf("census counted %d callbacks for %d ring messages: the steps are not running as callbacks", st.Callbacks, c.p*steps)
		}
		if c.alg != agRing && st.Callbacks > uint64(4*c.p*steps) {
			t.Errorf("%d-rank %v allgather ran %d callbacks, want at most 4·p·⌈log₂ p⌉ = %d", c.p, c.alg, st.Callbacks, 4*c.p*steps)
		}
	}
}

// TestAllgatherAllocationsIndependentOfSize pins the per-call cost of
// every algorithm: the result slice, and nothing that grows with p or
// with the call count — the task record and its bound step function are
// per communicator, the inbox queues reach a steady size, and nothing is
// ever queued in any rank's receive queue. The counts are the fewest
// of a few runs, taken and subtracted signed: the race detector's
// runtime allocates on its own, so under -race one run may count more
// than a longer one.
func TestAllgatherAllocationsIndependentOfSize(t *testing.T) {
	v := any(1)
	mallocs := func(p, calls int, alg allgatherAlg) int64 {
		least := int64(math.MaxInt64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			w, _ := testbedWorld(t, p, func(c *Comm) {
				for i := 0; i < calls; i++ {
					c.allgather(v, 8, alg)
				}
			})
			runtime.ReadMemStats(&after)
			for rank := range w.rx {
				if n := cap(w.rx[rank].q); n != 0 {
					t.Fatalf("allgather queued messages in rank %d's receive queue (capacity %d)", rank, n)
				}
			}
			least = min(least, int64(after.Mallocs)-int64(before.Mallocs))
		}
		return least
	}
	for _, alg := range []allgatherAlg{agRing, agBruck, agRecDoubling} {
		for _, p := range []int{64, 256} {
			// The difference of two run lengths cancels world set-up.
			const short, long = 4, 12
			perCall := float64(mallocs(p, long, alg)-mallocs(p, short, alg)) / float64((long-short)*p)
			if perCall > 1.5 {
				t.Errorf("%d ranks, %v: %.2f allocations per rank per allgather, want the result slice only", p, alg, perCall)
			}
		}
	}
}

// TestMismatchedAllgatherDeadlockNamesTheStep: a rank stuck inside a
// task is parked once for the whole collective, so the deadlock report
// must say which algorithm it runs and how far it got, not just that it
// is an allgather.
func TestMismatchedAllgatherDeadlockNamesTheStep(t *testing.T) {
	for _, c := range []struct {
		p     int
		bytes int64
		want  []string
	}{
		{3, 1 << 16, []string{ // 196,608 B: the ring
			"rank0 (waiting: allgather #1 on comm1 (ring): rank 0 of 3 at step 1 of 2, receiving from rank 2)",
			"rank2 (waiting: allgather #1 on comm1 (ring): rank 2 of 3 at step 0 of 2, receiving from rank 1)",
		}},
		{3, 8, []string{
			"rank0 (waiting: allgather #1 on comm1 (bruck): rank 0 of 3 at step 0 of 2, receiving from rank 1)",
			"rank2 (waiting: allgather #1 on comm1 (bruck): rank 2 of 3 at step 1 of 2, receiving from rank 1)",
		}},
		{4, 8, []string{
			"rank0 (waiting: allgather #1 on comm1 (recursive doubling): rank 0 of 4 at step 0 of 2, receiving from rank 1)",
			"rank2 (waiting: allgather #1 on comm1 (recursive doubling): rank 2 of 4 at step 1 of 2, receiving from rank 0)",
			"rank3 (waiting: allgather #1 on comm1 (recursive doubling): rank 3 of 4 at step 1 of 2, receiving from rank 1)",
		}},
	} {
		e := simtime.NewEngine()
		w, err := NewWorld(e, testMachine(t, 1, c.p), c.p)
		if err != nil {
			t.Fatal(err)
		}
		w.Start(func(comm *Comm) {
			if comm.Rank() != 1 {
				comm.Allgather(comm.Rank(), c.bytes) // rank 1 never joins
			}
		})
		dl, ok := e.Run().(*simtime.DeadlockError)
		if !ok {
			t.Fatalf("%d ranks × %d B: mismatched allgather did not report deadlock", c.p, c.bytes)
		}
		got := strings.Join(dl.Blocked, "\n")
		for _, want := range c.want {
			if !strings.Contains(got, want) {
				t.Errorf("deadlock report lacks %q:\n%s", want, got)
			}
		}
	}
}

// BenchmarkAllgather is the host cost of one allgather at the three
// machine sizes the experiments use, with the 8-byte blocks of the
// metadata exchanges (Bruck at these sizes) and, to keep the ring
// measured, with 1 KiB blocks. The benchmark ledger reports the short
// case's ns/op ÷ p² as mpi.allgather_ns_per_pair.
func BenchmarkAllgather(b *testing.B) {
	v := any(1)
	for _, c := range []struct {
		name  string
		p     int
		bytes int64
	}{
		{"ranks=120", 120, 8},
		{"ranks=360", 360, 8},
		{"ranks=1080", 1080, 8},
		{"long/ranks=120", 120, 1024},
		{"long/ranks=360", 360, 1024},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			testbedWorld(b, c.p, func(comm *Comm) {
				for i := 0; i < b.N; i++ {
					comm.Allgather(v, c.bytes)
				}
			})
		})
	}
}
