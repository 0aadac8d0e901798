package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/resource"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestSendRecvPairDoesNotAllocate: a rank's receive queue keeps no state
// per stream, so once it has grown to its working size a SendVal/RecvVal
// round trip allocates nothing, on one node and across two, even when
// every round opens a stream of its own (a fresh tag).
func TestSendRecvPairDoesNotAllocate(t *testing.T) {
	for _, c := range []struct {
		name         string
		nodes, cores int
	}{
		{"intra-node", 1, 2},
		{"inter-node", 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			const rounds = 100
			v := any(&struct{ x int }{}) // boxed once, outside the measured calls
			run(t, c.nodes, c.cores, 2, func(comm *Comm) {
				if comm.Rank() == 1 {
					for tag := 0; tag <= rounds; tag++ { // AllocsPerRun warms up with one extra call
						comm.SendVal(0, tag, comm.RecvVal(0, tag), 64)
					}
					return
				}
				tag := 0
				if n := testing.AllocsPerRun(rounds, func() {
					comm.SendVal(1, tag, v, 64)
					if comm.RecvVal(1, tag) != v {
						t.Error("echo carried another payload")
					}
					tag++
				}); n != 0 {
					t.Errorf("a SendVal/RecvVal round trip allocates %v objects, want 0", n)
				}
			})
		})
	}
}

// TestUnansweredReceiveNamesItsStream: a receive nobody answers is
// reported with its source, destination, context and tag, in the words
// the per-stream mailboxes used.
func TestUnansweredReceiveNamesItsStream(t *testing.T) {
	e := simtime.NewEngine()
	w, err := NewWorld(e, testMachine(t, 2, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(c *Comm) {
		if c.Rank() == 3 {
			c.RecvVal(1, 7) // rank 1 never sends
		}
	})
	dl, ok := e.Run().(*simtime.DeadlockError)
	if !ok {
		t.Fatal("unanswered receive did not report deadlock")
	}
	if got, want := strings.Join(dl.Blocked, "\n"), "rank3 (waiting: chan mbox 1->3 ctx1 tag7)"; got != want {
		t.Errorf("deadlock report %q, want %q", got, want)
	}
}

// mailboxes is the point-to-point delivery the receive queues replaced,
// kept as the reference TestReceiveQueuesMatchMailboxes holds them to:
// one simtime.Chan per (src, dst, context, tag) stream, and per stream a
// FIFO of in-flight payloads drained by one flush closure, which puts
// the oldest into the channel whenever one of the stream's arrival
// events fires. Nothing outside tests uses it.
type mailboxes struct {
	w     *World
	boxes map[msgKey]*mailbox

	// Clamp coverage: on links with latency, a stream's arrivals are
	// strictly increasing unless the fault layer clamped one to its
	// predecessor's.
	zeroLat bool
	last    map[msgKey]float64
	clamped int
}

type mailbox struct {
	ch      *simtime.Chan[any]
	pending []any
	flush   func()
}

func (mb *mailboxes) box(k msgKey) *mailbox {
	b := mb.boxes[k]
	if b == nil {
		b = &mailbox{ch: simtime.NewChan[any](mb.w.engine, fmt.Sprintf("mbox %d->%d ctx%x tag%d", k.src, k.dst, k.ctx, k.tag))}
		b.flush = func() {
			v := b.pending[0]
			b.pending = b.pending[1:]
			b.ch.Put(v)
		}
		mb.boxes[k] = b
	}
	return b
}

func (mb *mailboxes) send(c *Comm, dst, tag int, v any, bytes int64) {
	src, to := c.group[c.rank], c.group[dst]
	k := msgKey{matchKey{ctx: c.ctx, src: int32(src), tag: int32(tag)}, to}
	b := mb.box(k)
	free, arrival, intra := mb.w.inject(src, to, c.ctx, tag, bytes)
	if intra {
		c.p.WaitUntil(free)
		b.ch.Put(v)
		return
	}
	if last, ok := mb.last[k]; ok && arrival == last && !mb.zeroLat {
		mb.clamped++
	}
	mb.last[k] = arrival
	b.pending = append(b.pending, v)
	mb.w.engine.After(arrival-c.p.Now(), b.flush)
	c.p.WaitUntil(free)
}

func (mb *mailboxes) recv(c *Comm, src, tag int) any {
	return mb.box(msgKey{matchKey{ctx: c.ctx, src: int32(c.group[src]), tag: int32(tag)}, c.group[c.rank]}).ch.Get(c.p)
}

// p2pImpl is one side of the differential test. The receive queues take
// user tags through SendVal/RecvVal and collective tags through
// isend/irecv.
type p2pImpl struct {
	send func(c *Comm, dst, tag int, v any, bytes int64)
	recv func(c *Comm, src, tag int) any
}

var rxQueues = p2pImpl{
	send: func(c *Comm, dst, tag int, v any, bytes int64) {
		if tag < userTagSpace {
			c.SendVal(dst, tag, v, bytes)
			return
		}
		c.isend(dst, tag, v, bytes)
	},
	recv: func(c *Comm, src, tag int) any {
		if tag < userTagSpace {
			return c.RecvVal(src, tag)
		}
		return c.irecv(src, tag)
	},
}

// p2pMsg is one message of a drawn program, between world ranks, on the
// world communicator (comm 0) or on the caller's colour of a Split
// (comm 1).
type p2pMsg struct {
	src, dst, comm, tag int
	bytes               int64
}

// p2pCase is one random SPMD program, a pure function of its seed.
type p2pCase struct {
	nodes, cores, procs int
	colors              int  // the Split's colours: world rank r has colour r % colors
	zeroLat             bool // latency-free links: zero-byte messages arrive at the instant they are sent
	rounds              [][]p2pMsg
	order               [][][]int   // [round][rank] the round's messages to rank, in the order it receives them
	skew                [][]float64 // [round][rank] sleep before the round
	spec                *faults.Spec
}

// p2pTags mixes user tags with collective ones.
var p2pTags = []int{0, 1, 7, tagBcast, tagAlltoall}

// drawP2PCase draws a program. Each round is random pairs, a fan-in of
// every rank to one, or bursts of several messages on one stream — what
// a fault delay reorders and the clamp puts back.
func drawP2PCase(seed uint64) p2pCase {
	r := stats.NewRNG(seed)
	var k p2pCase
	k.cores = 1 + r.Intn(4)
	k.procs = 2 + r.Intn(23)
	k.colors = 1 + r.Intn(3)
	k.nodes = (k.procs+k.cores-1)/k.cores + r.Intn(2)
	k.zeroLat = r.Intn(4) == 0
	sizes := []int64{0, 8, 1024, 64 << 10}
	peer := func(src, comm int) int { // a random member of src's communicator
		if comm == 0 {
			return r.Intn(k.procs)
		}
		n := (k.procs - src%k.colors + k.colors - 1) / k.colors
		return src%k.colors + k.colors*r.Intn(n)
	}
	msg := func(src, dst, comm int) p2pMsg {
		return p2pMsg{src: src, dst: dst, comm: comm, tag: p2pTags[r.Intn(len(p2pTags))], bytes: sizes[r.Intn(len(sizes))]}
	}
	for round := 3 + r.Intn(4); round > 0; round-- {
		var msgs []p2pMsg
		switch r.Intn(3) {
		case 0:
			for i := 2 * k.procs; i > 0; i-- {
				src, comm := r.Intn(k.procs), r.Intn(2)
				msgs = append(msgs, msg(src, peer(src, comm), comm))
			}
		case 1:
			root := r.Intn(k.procs)
			for src := 0; src < k.procs; src++ {
				for i := 1 + r.Intn(3); i > 0; i-- {
					msgs = append(msgs, msg(src, root, 0))
				}
			}
		default:
			for i := 1 + r.Intn(k.procs); i > 0; i-- {
				src, comm := r.Intn(k.procs), r.Intn(2)
				m := msg(src, peer(src, comm), comm)
				for j := 2 + r.Intn(6); j > 0; j-- {
					msgs = append(msgs, m)
				}
			}
		}
		order := make([][]int, k.procs)
		for i, m := range msgs {
			order[m.dst] = append(order[m.dst], i)
		}
		for _, o := range order {
			for i := len(o) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				o[i], o[j] = o[j], o[i]
			}
		}
		skew := make([]float64, k.procs)
		if r.Intn(3) != 0 { // otherwise back to back
			for rank := range skew {
				if r.Intn(2) == 0 {
					skew[rank] = r.Float64() * 1e-4
				}
			}
		}
		k.rounds, k.order, k.skew = append(k.rounds, msgs), append(k.order, order), append(k.skew, skew)
	}
	if r.Intn(2) == 0 {
		spec := faults.Spec{Seed: seed, Messages: faults.MessageSpec{DelayRate: 0.5, DelayMeanSec: 1e-4}}
		for n := 0; n < k.nodes; n++ {
			if r.Intn(3) == 0 {
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

// p2pRecv is one receive as its rank saw it.
type p2pRecv struct {
	At      float64
	Src     int
	Payload any
}

// p2pRun is everything the two deliveries must agree on.
type p2pRun struct {
	Recvs  [][]p2pRecv // [rank]
	Stats  simtime.Stats
	Links  []resource.LinkStats
	Delays int64
}

// run executes the case's program: per round a skewed entry, every
// rank's sends in draw order, then its receives in its drawn order. With
// ref it delivers through mailboxes, else through the receive queues;
// it returns the run and the reference's clamp count.
func (k p2pCase) run(t *testing.T, ref bool) (p2pRun, int) {
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
	mb := &mailboxes{w: w, boxes: map[msgKey]*mailbox{}, zeroLat: k.zeroLat, last: map[msgKey]float64{}}
	impl := rxQueues
	if ref {
		impl = p2pImpl{send: mb.send, recv: mb.recv}
	}
	commRank := func(world, comm int) int { return world / (1 + (k.colors-1)*comm) }
	out := p2pRun{Recvs: make([][]p2pRecv, k.procs)}
	w.Start(func(c *Comm) {
		rank := c.Rank()
		comms := []*Comm{c, c.Split(rank%k.colors, rank)}
		for round, msgs := range k.rounds {
			if d := k.skew[round][rank]; d > 0 {
				c.Proc().Sleep(d)
			}
			for i, m := range msgs {
				if m.src == rank {
					impl.send(comms[m.comm], commRank(m.dst, m.comm), m.tag, fmt.Sprintf("r%d#%d", round, i), m.bytes)
				}
			}
			for _, i := range k.order[round][rank] {
				m := msgs[i]
				v := impl.recv(comms[m.comm], commRank(m.src, m.comm), m.tag)
				out.Recvs[rank] = append(out.Recvs[rank], p2pRecv{At: c.Now(), Src: m.src, Payload: v})
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
	out.Stats, out.Delays = e.Stats(), sched.Injected()
	return out, mb.clamped
}

// TestReceiveQueuesMatchMailboxes is the trajectory contract of the
// per-rank receive queues: over random SPMD programs — user and
// collective tags on two contexts, intra- and inter-node pairs, fan-ins,
// same-instant arrivals and fault delays the arrival clamp has to put
// back in order — every receive must return the same payload from the
// same source at the same virtual instant as through per-stream
// mailboxes, load every link identically, and leave the same engine
// census, sequence numbers included.
func TestReceiveQueuesMatchMailboxes(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	var faulted, clamped, zeroLat, intra, inter, fanIn int
	for seed := uint64(1); seed <= uint64(cases); seed++ {
		k := drawP2PCase(seed)
		want, clamps := k.run(t, true)
		got, _ := k.run(t, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d procs, %d cores/node, faults %v): receive queues diverged from mailboxes\n%s",
				seed, k.procs, k.cores, k.spec != nil, firstP2PDiff(got, want))
		}
		if k.spec != nil {
			faulted++
		}
		clamped += clamps
		if k.zeroLat {
			zeroLat++
		}
		for _, msgs := range k.rounds {
			dsts := map[int]bool{}
			for _, m := range msgs {
				if m.src/k.cores == m.dst/k.cores {
					intra++
				} else {
					inter++
				}
				dsts[m.dst] = true
			}
			if len(dsts) == 1 && len(msgs) > k.procs {
				fanIn++
			}
		}
	}
	// The draw must actually reach the paths the contract is about.
	if faulted == 0 || clamped == 0 || zeroLat == 0 || intra == 0 || inter == 0 || fanIn == 0 {
		t.Fatalf("coverage: %d faulted cases, %d clamped arrivals, %d latency-free cases, %d intra- and %d inter-node messages, %d fan-in rounds",
			faulted, clamped, zeroLat, intra, inter, fanIn)
	}
}

// firstP2PDiff names the first field two runs disagree on.
func firstP2PDiff(got, want p2pRun) string {
	for rank := range want.Recvs {
		for i, w := range want.Recvs[rank] {
			if i >= len(got.Recvs[rank]) {
				return fmt.Sprintf("rank %d received %d messages, want %d", rank, len(got.Recvs[rank]), len(want.Recvs[rank]))
			}
			if g := got.Recvs[rank][i]; g != w {
				return fmt.Sprintf("rank %d receive %d: %+v, want %+v", rank, i, g, w)
			}
		}
	}
	for i := range want.Links {
		if got.Links[i] != want.Links[i] {
			return fmt.Sprintf("link %+v, want %+v", got.Links[i], want.Links[i])
		}
	}
	return fmt.Sprintf("census %+v delays %d, want %+v %d", got.Stats, got.Delays, want.Stats, want.Delays)
}
