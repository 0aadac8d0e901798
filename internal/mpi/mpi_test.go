package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// testConfig is the small machine the tests run on; zeroLat makes every
// link latency-free, so zero-byte messages take no time at all.
func testConfig(nodes, cores int, zeroLat bool) cluster.Config {
	cfg := cluster.Config{
		Nodes: nodes, CoresPerNode: cores,
		MemPerNode: 64 * cluster.MiB,
		MemBusBW:   1e10, MemBusLat: 1e-7,
		NICBW: 1e9, NICLat: 1e-6,
		BisectionBW: 1e10, BisectionLat: 1e-6,
		IONetBW: 1e9,
	}
	if zeroLat {
		cfg.MemBusLat, cfg.NICLat, cfg.BisectionLat = 0, 0, 0
	}
	return cfg
}

func testMachine(t *testing.T, nodes, cores int) *cluster.Machine {
	t.Helper()
	m, err := cluster.New(testConfig(nodes, cores, false))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// caseWorld builds the world a drawn differential case runs on: procs
// ranks on testConfig's machine, under spec's faults when spec is set.
func caseWorld(t *testing.T, nodes, cores, procs int, zeroLat bool, spec *faults.Spec) (*World, *simtime.Engine, *faults.Schedule) {
	t.Helper()
	m, err := cluster.New(testConfig(nodes, cores, zeroLat))
	if err != nil {
		t.Fatal(err)
	}
	e := simtime.NewEngine()
	w, err := NewWorld(e, m, procs)
	if err != nil {
		t.Fatal(err)
	}
	var sched *faults.Schedule
	if spec != nil {
		if sched, err = faults.NewSchedule(*spec); err != nil {
			t.Fatal(err)
		}
		w.SetFaults(sched)
	}
	return w, e, sched
}

// linkLoads is every link's Stats(): each node's memory bus, NIC tx and
// NIC rx, then the bisection.
func linkLoads(m *cluster.Machine) []resource.LinkStats {
	var out []resource.LinkStats
	for n := 0; n < m.NumNodes(); n++ {
		node := m.Node(n)
		out = append(out, node.MemBus.Stats(), node.NICTx.Stats(), node.NICRx.Stats())
	}
	return append(out, m.Bisection().Stats())
}

// run spins up a world of nprocs on nodes×cores and executes body on
// every rank, failing the test on deadlock.
func run(t *testing.T, nodes, cores, nprocs int, body func(*Comm)) *World {
	t.Helper()
	e := simtime.NewEngine()
	m := testMachine(t, nodes, cores)
	w, err := NewWorld(e, m, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvCarriesData(t *testing.T) {
	run(t, 2, 2, 4, func(c *Comm) {
		if c.Rank() == 0 {
			b := buffer.NewReal(128)
			b.Fill(5, 0)
			c.SendVal(3, 1, b, b.Len())
		}
		if c.Rank() == 3 {
			got := c.RecvVal(0, 1).(buffer.Buf)
			if got.Len() != 128 {
				t.Errorf("len %d", got.Len())
			}
			if i := got.Verify(5, 0); i != -1 {
				t.Errorf("payload mismatch at %d", i)
			}
		}
	})
}

func TestSendRecvOrderingSameTag(t *testing.T) {
	run(t, 1, 2, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.SendVal(1, 2, i, 8)
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := c.RecvVal(0, 2).(int); got != i {
					t.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestTagsIsolateStreams(t *testing.T) {
	run(t, 1, 2, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendVal(1, 7, "seven", 8)
			c.SendVal(1, 8, "eight", 8)
		} else {
			// Receive in the opposite order of sending.
			if got := c.RecvVal(0, 8).(string); got != "eight" {
				t.Errorf("tag 8 got %q", got)
			}
			if got := c.RecvVal(0, 7).(string); got != "seven" {
				t.Errorf("tag 7 got %q", got)
			}
		}
	})
}

func TestInterNodeCostsMoreThanIntraNode(t *testing.T) {
	var intra, inter float64
	run(t, 2, 2, 4, func(c *Comm) {
		const sz = 1 << 20
		switch c.Rank() {
		case 0:
			c.SendVal(1, 1, buffer.NewPhantom(sz), sz) // same node
			c.SendVal(2, 2, buffer.NewPhantom(sz), sz) // other node
		case 1:
			c.RecvVal(0, 1)
			intra = c.Now()
		case 2:
			c.RecvVal(0, 2)
			inter = c.Now()
		}
	})
	if intra <= 0 || inter <= intra {
		t.Fatalf("intra=%g inter=%g; want 0 < intra < inter", intra, inter)
	}
}

func TestSenderBlocksOnlyForInjection(t *testing.T) {
	// With a slow bisection, the sender should be free long before the
	// receiver gets the message.
	e := simtime.NewEngine()
	m, err := cluster.New(cluster.Config{
		Nodes: 2, CoresPerNode: 1,
		MemPerNode: 64 * cluster.MiB,
		MemBusBW:   1e12, NICBW: 1e12,
		BisectionBW: 1e6, // 1 MB/s: delivery takes ~1 s for 1 MB
		IONetBW:     1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	var senderFree, recvAt float64
	w.Start(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendVal(1, 1, buffer.NewPhantom(1<<20), 1<<20)
			senderFree = c.Now()
		} else {
			c.RecvVal(0, 1)
			recvAt = c.Now()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if senderFree >= recvAt/10 {
		t.Fatalf("sender blocked until %g, delivery at %g: send is not asynchronous", senderFree, recvAt)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	times := make([]float64, 8)
	run(t, 2, 4, 8, func(c *Comm) {
		c.Proc().Sleep(float64(c.Rank()) * 0.01)
		c.Barrier()
		times[c.Rank()] = c.Now()
	})
	for r, at := range times {
		if at < 0.07 {
			t.Fatalf("rank %d left barrier at %g, before last arrival 0.07", r, at)
		}
	}
}

// TestBarriersSendLikeBarrierThenSendVal: a member that stands through
// the rounds it has nothing to send — Barriers(k) for k consecutive
// Barrier calls — and sends in the rest, as a two-layer mate funnels
// only its non-empty bundles, runs the trajectory of a Barrier call per
// round with the same sends. The receiver, which takes a value only in
// the rounds it is sent one, gets every value at the same instant, the
// other members leave every barrier at the same instant, and Scheduled,
// Callbacks and Inline are equal, with the receiver on the sender's
// node, on another node, and on the sender's node with latency-free
// links and zero-byte values (the send's wait is then a yield). A warm
// standing stretch allocates nothing.
func TestBarriersSendLikeBarrierThenSendVal(t *testing.T) {
	const rounds, tag = 9, 7
	sends := []bool{false, false, true, false, false, false, true, true, false} // rank 1 sends after round i's barrier
	for _, c := range []struct {
		name         string
		nodes, cores int
		zeroLat      bool
		bytes        int64
	}{
		{"intra-node", 1, 4, false, 8},
		{"inter-node", 4, 1, false, 8},
		{"intra-node, latency-free", 1, 4, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := any(&struct{ x int }{})
			run := func(standing bool) (log []string, st simtime.Stats) {
				w, e, _ := caseWorld(t, c.nodes, c.cores, 4, c.zeroLat, nil)
				note := func(comm *Comm, what string) {
					log = append(log, fmt.Sprintf("%g rank %d %s", comm.Now(), comm.Rank(), what))
				}
				w.Start(func(comm *Comm) {
					switch comm.Rank() {
					case 1: // stands through the rounds it sends nothing in
						for i := 0; i < rounds; i++ {
							if standing {
								n := 1
								for i+n < rounds && !sends[i+n-1] {
									n++
								}
								comm.Barriers(n)
								i += n - 1
							} else {
								comm.Barrier()
							}
							if sends[i] {
								comm.SendVal(0, tag, v, c.bytes)
							}
						}
					default: // works a rank- and round-dependent while, rank 0 receiving first
						for i := 0; i < rounds; i++ {
							comm.Barrier()
							if comm.Rank() == 0 && sends[i] && comm.RecvVal(1, tag) != v {
								t.Error("the send carried another payload")
							}
							note(comm, fmt.Sprint("round ", i))
							comm.Proc().Sleep(float64(comm.Rank()*i%3) * 1e-6)
						}
						note(comm, "done")
					}
				})
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return log, e.Stats()
			}
			want, wantStats := run(false)
			got, gotStats := run(true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("standing diverges:\nstanding %q\nper call %q", got, want)
			}
			if gotStats.Parks >= wantStats.Parks {
				t.Errorf("standing parks %d times, per call %d", gotStats.Parks, wantStats.Parks)
			}
			gotStats.Parks, gotStats.Dispatches = wantStats.Parks, wantStats.Dispatches
			if gotStats != wantStats {
				t.Errorf("census %+v, per call %+v", gotStats, wantStats)
			}

			const stretches, n = 50, 6
			w, e, _ := caseWorld(t, c.nodes, c.cores, 2, c.zeroLat, nil)
			w.Start(func(comm *Comm) {
				if comm.Rank() == 0 {
					for i := 0; i <= stretches; i++ { // AllocsPerRun warms up with one extra call
						for j := 0; j < n; j++ {
							comm.Barrier()
						}
						comm.RecvVal(1, tag)
					}
					return
				}
				if a := testing.AllocsPerRun(stretches, func() { comm.Barriers(n); comm.SendVal(0, tag, v, c.bytes) }); a != 0 {
					t.Errorf("a standing stretch of %d barriers and a send allocates %v objects, want 0", n, a)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	got := make([]int, 7)
	run(t, 2, 4, 7, func(c *Comm) {
		v := -1
		if c.Rank() == 2 {
			v = 42
		}
		got[c.Rank()] = c.Bcast(2, v, 8).(int)
	})
	for r, v := range got {
		if v != 42 {
			t.Fatalf("rank %d got %d", r, v)
		}
	}
}

func TestAllgatherOrderAndCompleteness(t *testing.T) {
	const p = 6
	run(t, 2, 3, p, func(c *Comm) {
		out := c.Allgather(c.Rank()*10, 8)
		if len(out) != p {
			t.Fatalf("allgather returned %d entries", len(out))
		}
		for i, v := range out {
			if v.(int) != i*10 {
				t.Fatalf("rank %d: out[%d]=%v, want %d", c.Rank(), i, v, i*10)
			}
		}
	})
}

func TestGatherOnlyRootSees(t *testing.T) {
	run(t, 1, 4, 4, func(c *Comm) {
		out := c.Gather(1, fmt.Sprintf("r%d", c.Rank()), 8)
		if c.Rank() != 1 {
			if out != nil {
				t.Errorf("non-root got %v", out)
			}
			return
		}
		for i, v := range out {
			if v.(string) != fmt.Sprintf("r%d", i) {
				t.Errorf("out[%d]=%v", i, v)
			}
		}
	})
}

func TestAlltoallPermutation(t *testing.T) {
	const p = 5
	run(t, 1, 8, p, func(c *Comm) {
		vals := make([]any, p)
		bytes := make([]int64, p)
		for i := 0; i < p; i++ {
			vals[i] = c.Rank()*100 + i
			bytes[i] = 64
		}
		present := make([]bool, p)
		for i := range present {
			present[i] = true
		}
		out := make([]any, p)
		c.AlltoallSparseInto(out, vals, bytes, present)
		for i, v := range out {
			want := i*100 + c.Rank()
			if v.(int) != want {
				t.Fatalf("rank %d: out[%d]=%v, want %d", c.Rank(), i, v, want)
			}
		}
	})
}

func TestAlltoallSparseSkipsAbsent(t *testing.T) {
	const p = 4
	// Only rank 0 sends, to everyone; everyone knows it.
	run(t, 1, 4, p, func(c *Comm) {
		vals := make([]any, p)
		bytes := make([]int64, p)
		present := make([]bool, p)
		if c.Rank() == 0 {
			for i := range vals {
				vals[i] = i + 1000
				bytes[i] = 32
			}
		}
		present[0] = true
		out := make([]any, p)
		c.AlltoallSparseInto(out, vals, bytes, present)
		if out[0].(int) != c.Rank()+1000 {
			t.Fatalf("rank %d got %v from 0", c.Rank(), out[0])
		}
		for i := 1; i < p; i++ {
			if out[i] != nil {
				t.Fatalf("rank %d got unexpected %v from %d", c.Rank(), out[i], i)
			}
		}
	})
}

func TestSplitByParity(t *testing.T) {
	const p = 6
	run(t, 2, 3, p, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub.Size() != 3 {
			t.Fatalf("sub size %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Fatalf("world rank %d has sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// Collectives on the sub-communicator must not cross colors.
		got := sub.Allgather(c.Rank(), 8)
		for i, v := range got {
			if want := 2*i + c.Rank()%2; v.(int) != want {
				t.Fatalf("rank %d sub-allgather %v, want world rank %d at %d", c.Rank(), got, want, i)
			}
		}
		// World rank mapping preserved.
		if sub.WorldRank(sub.Rank()) != c.Rank() {
			t.Fatalf("world rank mapping broken")
		}
	})
}

func TestSplitSubgroupsAreConcurrentlyUsable(t *testing.T) {
	// Two disjoint subgroups barrier independently; neither waits for
	// the other (the point of the paper's group division).
	leftDone := make([]float64, 4)
	run(t, 2, 2, 4, func(c *Comm) {
		sub := c.Split(c.Rank()/2, 0)
		if c.Rank() >= 2 {
			c.Proc().Sleep(1000) // right group is very slow
		}
		sub.Barrier()
		leftDone[c.Rank()] = c.Now()
	})
	if leftDone[0] > 1 || leftDone[1] > 1 {
		t.Fatalf("left group blocked on right group: %v", leftDone[:2])
	}
}

// TestTrafficStatsSeparateLocality: an intra-node message loads only
// its node's memory bus; an inter-node one also crosses both NICs and
// the bisection link, once.
func TestTrafficStatsSeparateLocality(t *testing.T) {
	w := run(t, 2, 2, 4, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendVal(1, 1, buffer.NewPhantom(100), 100) // intra
			c.SendVal(2, 1, buffer.NewPhantom(200), 200) // inter
		}
		if c.Rank() == 1 || c.Rank() == 2 {
			c.RecvVal(0, 1)
		}
	})
	m := w.Machine()
	bis, tx, rx := m.Bisection().Stats(), m.Node(0).NICTx.Stats(), m.Node(1).NICRx.Stats()
	if bis.Bytes != 200 || bis.Transfers != 1 || tx.Bytes != 200 || rx.Bytes != 200 {
		t.Fatalf("inter-node traffic: bisection %+v, sender NIC %+v, receiver NIC %+v", bis, tx, rx)
	}
	if bus := m.Node(0).MemBus.Stats(); bus.Bytes != 300 || bus.Transfers != 2 {
		t.Fatalf("sender memory bus carried %+v, want both messages", bus)
	}
	if bus := m.Node(1).MemBus.Stats(); bus.Bytes != 200 || bus.Transfers != 1 {
		t.Fatalf("receiver memory bus carried %+v, want the inter-node message only", bus)
	}
}

func TestMismatchedCollectiveDeadlocks(t *testing.T) {
	e := simtime.NewEngine()
	m := testMachine(t, 1, 2)
	w, err := NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier() // rank 1 never joins
		}
	})
	if _, ok := e.Run().(*simtime.DeadlockError); !ok {
		t.Fatal("mismatched barrier did not report deadlock")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	e := simtime.NewEngine()
	m := testMachine(t, 1, 2)
	if _, err := NewWorld(e, m, 3); err == nil {
		t.Fatal("oversized world accepted")
	}
	if _, err := NewWorld(e, m, 0); err == nil {
		t.Fatal("empty world accepted")
	}
}

func TestBadRankAndTagPanic(t *testing.T) {
	run(t, 1, 2, 2, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, f := range []func(){
			func() { c.SendVal(5, 0, buffer.NewPhantom(1), 1) },
			func() { c.SendVal(0, -1, buffer.NewPhantom(1), 1) },
			func() { c.SendVal(0, userTagSpace, buffer.NewPhantom(1), 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("no panic")
					}
				}()
				f()
			}()
		}
	})
}

func TestSingletonCommCollectivesAreNoops(t *testing.T) {
	run(t, 1, 1, 1, func(c *Comm) {
		c.Barrier()
		if v := c.Bcast(0, 9, 8).(int); v != 9 {
			t.Error("bcast")
		}
		if out := c.Allgather(3, 8); len(out) != 1 || out[0].(int) != 3 {
			t.Error("allgather")
		}
	})
}

func TestLargeWorldBarrierScales(t *testing.T) {
	run(t, 16, 8, 128, func(c *Comm) {
		for i := 0; i < 3; i++ {
			c.Barrier()
		}
	})
}

func TestBcastChargesRootSizeThroughTree(t *testing.T) {
	// Binomial broadcast sends p-1 messages, each charged at the
	// ROOT's payload size — including the hops forwarded by
	// intermediate members whose own bytes argument is meaningless.
	// One rank per node, so every hop crosses the bisection link.
	const p = 8
	const payload = int64(1000)
	w := run(t, p, 1, p, func(c *Comm) {
		v := any(nil)
		bytes := int64(0)
		if c.Rank() == 3 {
			v, bytes = "data", payload
		}
		c.Bcast(3, v, bytes)
	})
	if got := w.Machine().Bisection().Stats().Bytes; got != payload*(p-1) {
		t.Fatalf("bcast moved %d bytes, want %d", got, payload*(p-1))
	}
}

func TestSplitContextsIsolateSuccessiveSplits(t *testing.T) {
	// Two successive splits with the same colors must not cross talk:
	// messages of the first sub-comm cannot be received by the second.
	run(t, 2, 2, 4, func(c *Comm) {
		a := c.Split(c.Rank()%2, 0)
		b := c.Split(c.Rank()%2, 0)
		if a.Rank() == 0 {
			a.SendVal(1, 1, "first", 8)
		}
		if b.Rank() == 0 {
			b.SendVal(1, 1, "second", 8)
		}
		if a.Rank() == 1 {
			if got := a.RecvVal(0, 1).(string); got != "first" {
				t.Errorf("sub-comm a got %q", got)
			}
		}
		if b.Rank() == 1 {
			if got := b.RecvVal(0, 1).(string); got != "second" {
				t.Errorf("sub-comm b got %q", got)
			}
		}
	})
}
