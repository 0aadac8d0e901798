// Package mpi implements the message-passing runtime the collective
// I/O strategies run on: communicators over simulated processes,
// point-to-point messaging costed through the machine's resource
// links, and the collective algorithms (binomial broadcast,
// dissemination barrier, MPICH2's recursive-doubling, Bruck and ring
// allgathers, pairwise all-to-all) MPI implementations actually use, so
// their virtual-time cost scales the way real collectives do.
//
// The transfer model is eager with asynchronous delivery: a sender is
// blocked only while it injects the message through its own node's
// memory bus and NIC; the fabric and receiver-side hops determine the
// arrival time, at which point the message lands in the destination
// rank's receive queue. A receive blocks until its message arrives; it
// matches on source, context and tag, as MPI does.
//
// Two execution styles share that model (World.inject is its single
// copy). Point-to-point calls and most collectives are coroutine code:
// they run on the calling rank's simulated process and park it at every
// wait. The allgather and the sparse all-to-all (SparseExchange) are
// instead engine-driven tasks: a per-rank state record advanced by
// engine callbacks that occupy exactly the queue slots the coroutine's
// wakes did, with the process parked once for the whole collective. The
// virtual trajectory is the same to the last event; see ring.go for the
// rule, and ring_test.go and sparse_test.go for the coroutine versions
// each is checked against.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/simtime"
)

// matchKey is what a receive matches on: source world rank,
// communicator context and tag.
type matchKey struct {
	ctx      uint64
	src, tag int32
}

// msgKey names a stream, for the fault layer's arrival clamp.
type msgKey struct {
	matchKey
	dst int
}

// envelope is a point-to-point payload with its match fields.
type envelope struct {
	key     matchKey
	payload any // a buffer.Buf or an arbitrary metadata value
}

func (e envelope) stream() matchKey { return e.key }

// rxQueue is one world rank's receive queue: the point-to-point
// messages sent to it and not yet received, in send order, on the
// landing rule allgather blocks use. Built once per rank, it costs no
// map lookup and, once grown to its working size, no allocation.
type rxQueue struct {
	landQueue[envelope, matchKey]
	waiter *simtime.Proc   // the owner, parked on posted
	task   *SparseExchange // or the owner's sparse exchange, waiting on posted
	posted msgKey
	land   func() // arrival event of one inter-node message, allocated once
}

// String is the owner's wait reason in a deadlock report.
func (q *rxQueue) String() string {
	return fmt.Sprintf("chan mbox %d->%d ctx%x tag%d", q.posted.src, q.posted.dst, q.posted.ctx, q.posted.tag)
}

// arrived wakes the owner if it waits on entry i's key: a parked
// process from its own queue entry, a sparse exchange by scheduling its
// continuation in that same slot.
func (q *rxQueue) arrived(i int) {
	if q.q[i].v.key != q.posted.matchKey {
		return
	}
	if p := q.waiter; p != nil {
		q.waiter = nil
		p.Wake()
	} else if x := q.task; x != nil {
		q.task = nil
		x.c.w.engine.After(0, x.resume)
	}
}

// take consumes the oldest message of k if it has landed (each stream
// lands in send order) and reports whether it did.
func (q *rxQueue) take(k matchKey) (any, bool) {
	i := q.head
	for i < len(q.q) && (q.q[i].taken || q.q[i].v.key != k) {
		i++
	}
	if i == len(q.q) || !q.q[i].landed {
		return nil, false
	}
	v := q.q[i].v.payload
	q.consume(i)
	return v, true
}

// World is the universe of simulated MPI processes on one machine.
type World struct {
	engine   *simtime.Engine
	machine  *cluster.Machine
	size     int
	rx       []rxQueue                   // per world rank
	barriers map[uint64]*simtime.Barrier // per communicator context
	inboxes  map[inboxKey]*inbox         // allgather blocks per (context, member), see ring.go
	shared   map[sharedKey]*sharedSlot   // per (context, call), see Shared
	identity []int                       // the world group, shared by every world communicator

	met worldMetrics

	// Per-node delivery paths, built once at NewWorld. A path value is
	// just an ordered view over shared *Link state, so one cached entry
	// per node-direction replaces the per-message NewPath construction
	// that dominated allocation in shuffle-heavy runs: the cost model is
	// batched per node pair, not rebuilt per message.
	txPaths    []resource.Path // node -> sender-side injection (membus, NIC tx)
	rxPaths    []resource.Path // node -> fabric + receiver side (bisection, NIC rx, membus)
	intraPaths []resource.Path // node -> same-node memory-bus pass
	barrierHop float64         // one dissemination token hop, precomputed from Config

	// faults, when non-nil, perturbs inter-node delivery; lastArrival
	// keeps each stream's arrivals in send order under its delays. Both
	// are touched only from simulation context, which serializes them.
	faults      *faults.Schedule
	lastArrival map[msgKey]float64
}

// worldMetrics bundles the collective-layer instrument handles,
// resolved once at NewWorld. All handles are nil (and updates free)
// when the machine has no metrics registry attached.
type worldMetrics struct {
	barriers      *metrics.Counter
	alltoalls     *metrics.Counter
	alltoallBytes *metrics.Counter
}

func newWorldMetrics(r *metrics.Registry) worldMetrics {
	return worldMetrics{
		barriers: r.Counter("mpi_barriers_total",
			"Barrier collectives entered (one count per calling rank)."),
		alltoalls: r.Counter("mpi_alltoalls_total",
			"Alltoall(v) collectives entered (one count per calling rank)."),
		alltoallBytes: r.Counter("mpi_alltoall_bytes_total",
			"Payload bytes injected into alltoall exchanges."),
	}
}

// NewWorld creates a world of size processes placed block-wise on the
// machine. size must not exceed the machine's core count.
func NewWorld(e *simtime.Engine, m *cluster.Machine, size int) (*World, error) {
	if size <= 0 || size > m.NumRanks() {
		return nil, fmt.Errorf("mpi: world size %d not in [1, %d]", size, m.NumRanks())
	}
	w := &World{
		engine:   e,
		machine:  m,
		size:     size,
		rx:       make([]rxQueue, size),
		barriers: make(map[uint64]*simtime.Barrier),
		inboxes:  make(map[inboxKey]*inbox),
		shared:   make(map[sharedKey]*sharedSlot),
		identity: make([]int, size),
		met:      newWorldMetrics(m.Metrics()),
	}
	for i := range w.identity {
		q := &w.rx[i]
		w.identity[i] = i
		q.land = func() { q.arrived(q.landOne(e.Now())) }
	}
	nn := m.NumNodes()
	w.txPaths = make([]resource.Path, nn)
	w.rxPaths = make([]resource.Path, nn)
	w.intraPaths = make([]resource.Path, nn)
	for n := 0; n < nn; n++ {
		node := m.Node(n)
		w.txPaths[n] = resource.NewPath(node.MemBus, node.NICTx)
		w.rxPaths[n] = resource.NewPath(m.Bisection(), node.NICRx, node.MemBus)
		w.intraPaths[n] = resource.NewPath(node.MemBus)
	}
	cfg := m.Config()
	w.barrierHop = 2*cfg.NICLat + cfg.BisectionLat + 2*cfg.MemBusLat
	return w, nil
}

// SetFaults attaches a fault schedule to the world's delivery layer;
// nil detaches. Attach before Start so every message sees it.
func (w *World) SetFaults(s *faults.Schedule) {
	w.faults = s
	if s != nil && w.lastArrival == nil {
		w.lastArrival = make(map[msgKey]float64)
	}
}

// Faults returns the attached fault schedule, or nil. All Schedule
// methods are nil-safe, so callers may use the result unconditionally.
func (w *World) Faults() *faults.Schedule { return w.faults }

// Size returns the number of processes.
func (w *World) Size() int { return w.size }

// Machine returns the machine the world runs on.
func (w *World) Machine() *cluster.Machine { return w.machine }

// Engine returns the simulation engine.
func (w *World) Engine() *simtime.Engine { return w.engine }

// Start spawns every process; each runs body with its world
// communicator. Call engine.Run() afterwards to execute. A group is
// never written after construction, so the p world communicators share
// one identity slice instead of holding p copies of it.
func (w *World) Start(body func(*Comm)) {
	for r := 0; r < w.size; r++ {
		r := r
		w.engine.Spawn(fmt.Sprintf("rank%d", r), func(p *simtime.Proc) {
			body(&Comm{w: w, p: p, ctx: 1, rank: r, group: w.identity})
		})
	}
}

// barrierFor returns (lazily creating) the native barrier backing a
// communicator's Barrier calls.
func (w *World) barrierFor(ctx uint64, parties int) *simtime.Barrier {
	b := w.barriers[ctx]
	if b == nil {
		b = simtime.NewBarrier(w.engine, fmt.Sprintf("comm%x", ctx), parties)
		w.barriers[ctx] = b
	}
	return b
}

// inject books one message's hops at the caller's current time
// without blocking anyone: the sender is busy until free; an
// inter-node payload (intra false) reaches dst's node at arrival, while
// an intra-node one is handed over by the sender itself once free has
// passed. It is the single copy of the reservation and fault
// arithmetic, shared by the blocking deliver and the engine-driven
// collectives.
func (w *World) inject(src, dst int, ctx uint64, tag int, bytes int64) (free, arrival float64, intra bool) {
	sn, dn := w.machine.NodeOfRank(src), w.machine.NodeOfRank(dst)
	now := w.engine.Now()
	if sn == dn {
		// One memory-bus pass; sender is occupied for the whole copy.
		free = w.intraPaths[sn].Reserve(now, bytes)
		return free, free, true
	}
	txDone := w.txPaths[sn].Reserve(now, bytes)
	arrival = w.rxPaths[dn].Reserve(txDone, bytes)
	if w.faults != nil {
		// A degraded link stretches the remote (fabric + receiver) part
		// of the delivery; either endpoint's link fault applies.
		f := w.faults.LinkFactor(sn, now)
		if g := w.faults.LinkFactor(dn, now); g > f {
			f = g
		}
		if f > 1 {
			arrival = txDone + (arrival-txDone)*f
		}
		arrival += w.faults.MessageDelay(sn, dn, now)
		// Variable fault delays must not reorder a (src,dst,tag) stream:
		// receivers match payloads by arrival order within one, so clamp
		// each arrival to its predecessor's.
		k := msgKey{matchKey{ctx: ctx, src: int32(src), tag: int32(tag)}, dst}
		if last := w.lastArrival[k]; arrival < last {
			arrival = last
		}
		w.lastArrival[k] = arrival
	}
	return txDone, arrival, false
}

// deliver injects a message from src to dst (world ranks): the
// calling proc blocks while its local hops carry the bytes; remote hops
// are reserved asynchronously and the payload lands in dst's receive
// queue at the arrival time.
func (w *World) deliver(p *simtime.Proc, src, dst int, ctx uint64, tag int, v any, bytes int64) {
	q, env := &w.rx[dst], envelope{key: matchKey{ctx: ctx, src: int32(src), tag: int32(tag)}, payload: v}
	free, arrival, intra := w.inject(src, dst, ctx, tag, bytes)
	if intra {
		p.WaitUntil(free)
		q.arrived(q.put(env))
		return
	}
	q.fly(w.engine, arrival, env, q.land)
	p.WaitUntil(free)
}
