package mpi

import (
	"fmt"
	"math/bits"

	"repro/internal/simtime"
)

// Allgather runs the algorithm MPICH2 picks for the total size
// (allgatherAlg): recursive doubling or Bruck, ⌈log₂ p⌉ steps, for short
// totals, the ring, p−1 steps, for long ones. Each is an engine-driven
// task rather than code on its caller's stack, where every message cost
// the sender a park, usually the receiver another, and a receive match.
// The task keeps every one of those events — same instant, same
// tie-break sequence — but makes them callbacks that advance a
// per-member record (allgatherTask), so the owning process parks once
// per collective. The three algorithms share that record and its
// send/sent/recv step machine; each supplies only its step count, its
// peers per step and the blocks per step.
//
// The rule that keeps the trajectory exact, checked against a coroutine
// version of each algorithm by TestAllgatherTasksMatchCoroutines:
//
//   - where the coroutine parked, the task schedules its continuation
//     at the same point in program order (simtime.Engine.ContinueAt for
//     the sender's injection wait, After(0, ·) from the delivering side
//     for a receive), so the event takes the same (at, seq);
//   - where the coroutine advanced the clock inline, so does the task;
//   - the process is resumed inside the finishing callback's own queue
//     slot (simtime.Engine.Resume), so what it runs next is ordered as
//     if its last wake event had been its own.
//
// A receiver's continuation is always an event ordered by seq, never
// run by the sender — which is what separates this from the rendezvous
// fusion PERFORMANCE.md §3.3 rejected.

// allgatherAlg is one of the allgather algorithms MPICH2 selects from
// (Thakur, Rabenseifner & Gropp, "Optimization of Collective
// Communication Operations in MPICH", IJHPCA 2005).
type allgatherAlg uint8

const (
	agRing        allgatherAlg = iota // step k: one block to rank+1, from rank−1
	agBruck                           // step k: min(2^k, p−2^k) blocks to rank−2^k, from rank+2^k
	agRecDoubling                     // step k: 2^k blocks with rank XOR 2^k; p a power of two
)

// MPICH2's cutoffs on the total gathered bytes, p × block
// (MPIR_ALLGATHER_SHORT_MSG and MPIR_ALLGATHER_LONG_MSG).
const (
	allgatherShortMsg = 81920
	allgatherLongMsg  = 524288
)

// pickAllgather is MPICH2's rule: recursive doubling for a power-of-two
// p below the long cutoff, else Bruck below the short cutoff, else the
// ring.
func pickAllgather(p int, bytes int64) allgatherAlg {
	total := int64(p) * bytes
	switch {
	case p&(p-1) == 0 && total < allgatherLongMsg:
		return agRecDoubling
	case total < allgatherShortMsg:
		return agBruck
	}
	return agRing
}

func (a allgatherAlg) String() string { return [...]string{"ring", "bruck", "recursive doubling"}[a] }

// steps is the number of steps a p-member allgather takes.
func (a allgatherAlg) steps(p int) int {
	if a == agRing {
		return p - 1
	}
	return bits.Len(uint(p - 1))
}

// peers returns whom member r sends to and receives from at step k.
func (a allgatherAlg) peers(r, k, p int) (to, from int) {
	switch a {
	case agRing:
		return (r + 1) % p, (r - 1 + p) % p
	case agBruck:
		return (r - 1<<k + p) % p, (r + 1<<k) % p
	}
	return r ^ 1<<k, r ^ 1<<k
}

// blocks is the number of members' blocks step k carries.
func (a allgatherAlg) blocks(k, p int) int {
	switch a {
	case agRing:
		return 1
	case agBruck:
		return min(1<<k, p-1<<k)
	}
	return 1 << k
}

// inboxKey names one member's allgather inbox.
type inboxKey struct {
	ctx  uint64
	rank int // world rank of the owning member
}

// agBlock is one step's message on its way to a member. It carries no
// value: every member reads the blocks from the one shared result slice,
// filled in by their owners before they sent anything, so the task only
// has to reproduce when each member may proceed. A ring keeps up to
// O(p²) of them in flight, hence the narrow fields.
type agBlock struct {
	seq, step int32 // the sender's allgather sequence number on the comm, and its step
	from      int32 // the sender's comm rank
}

// is reports whether b is the block of allgather seq's step.
func (b agBlock) is(seq, step int) bool { return int(b.seq) == seq && int(b.step) == step }

// stream is what a coroutine allgather's receive would match b on: its
// sender and step tag.
func (b agBlock) stream() [2]int { return [2]int{int(b.from), stepTag(int(b.step))} }

// landQueue holds the messages sent to one receiver and not yet
// consumed, in send order: the one copy of the landing rule that
// point-to-point messages (rxQueue) and allgather blocks (inbox) share.
// Each stream of values lands in send order.
type landQueue[V interface{ stream() K }, K comparable] struct {
	q       []landing[V]
	head    int // oldest entry not taken
	next    int // first entry not landed; entries before it have all landed
	unfired int // first entry whose arrival event has not run
}

// landing is one queued value and its progress.
type landing[V any] struct {
	at                   float64 // inter-node: the instant its arrival event fires
	v                    V
	fired, landed, taken bool // its arrival event ran; it arrived; the receiver consumed it
}

// fly appends v in flight and schedules land, the queue's arrival event,
// at arrival; at and the event time are both now+(arrival−now) exactly.
func (lq *landQueue[V, K]) fly(e *simtime.Engine, arrival float64, v V, land func()) {
	d := arrival - e.Now()
	lq.q = append(lq.q, landing[V]{at: e.Now() + d, v: v})
	e.After(d, land)
}

// put appends v as already landed (intra-node: the sender hands it over
// itself once its bus pass is done) and returns its index.
func (lq *landQueue[V, K]) put(v V) int {
	lq.q = append(lq.q, landing[V]{v: v, fired: true, landed: true})
	lq.settle()
	return len(lq.q) - 1
}

// landOne is the arrival event of one in-flight entry, at now; it
// returns the index of the entry that lands. Events due at the same
// instant run in the order they were scheduled, which is queue order, so
// the oldest unfired entry due now is the one this event was scheduled
// for. The event then lands the oldest unlanded entry of that entry's
// stream: a fault-clamped arrival, spelled now+(arrival−now) at a later
// now, may round an ulp below its predecessor's and fire first.
func (lq *landQueue[V, K]) landOne(now float64) int {
	i := lq.unfired
	for lq.q[i].fired || lq.q[i].at != now {
		i++
	}
	j, s := lq.next, lq.q[i].v.stream()
	for lq.q[j].landed || lq.q[j].v.stream() != s {
		j++
	}
	lq.q[i].fired, lq.q[j].landed = true, true
	lq.settle()
	return j
}

// settle moves unfired and next past the entries fired and landed.
func (lq *landQueue[V, K]) settle() {
	for lq.unfired < len(lq.q) && lq.q[lq.unfired].fired {
		lq.unfired++
	}
	for lq.next < len(lq.q) && lq.q[lq.next].landed {
		lq.next++
	}
}

// consume marks entry i taken. Taken, fired entries are shifted out once
// they are half the queue: a drained queue starts over at the front,
// and one that never drains still reuses its backing array.
func (lq *landQueue[V, K]) consume(i int) {
	lq.q[i].taken = true
	for lq.head < len(lq.q) && lq.q[lq.head].taken {
		lq.head++
	}
	if n := min(lq.head, lq.unfired); 2*n >= len(lq.q) {
		m := copy(lq.q, lq.q[n:])
		clear(lq.q[m:])
		lq.q = lq.q[:m]
		lq.head, lq.next, lq.unfired = lq.head-n, lq.next-n, lq.unfired-n
	}
}

// inbox holds the blocks sent to one member in one communicator context
// and not yet consumed. The owner takes the block of its current (call,
// step), wherever it stands: Bruck's and recursive doubling's senders
// differ per step, so their blocks may land out of step order, while
// each (sender, step tag) stream lands in send order, as a coroutine's
// receives would see it. One inbox per (context, member) stands in for
// the 63 step tags a coroutine allgather receives on per peer.
type inbox struct {
	landQueue[agBlock, [2]int]
	waiter *allgatherTask // the owner's task, parked on the block of its (seq, step)
	land   func()         // arrival event of one inter-node block, allocated once
}

// inbox returns (lazily creating) the inbox of world rank `rank` in
// communicator context ctx, whose size is p. The queue starts with room
// for the ⌈log₂ p⌉ blocks a short allgather may leave in it, so the few
// calls made on most communicators never regrow it.
func (w *World) inbox(ctx uint64, rank, p int) *inbox {
	k := inboxKey{ctx: ctx, rank: rank}
	in := w.inboxes[k]
	if in == nil {
		in = &inbox{landQueue: landQueue[agBlock, [2]int]{q: make([]landing[agBlock], 0, bits.Len(uint(p-1)))}}
		in.land = func() { in.arrived(in.landOne(w.engine.Now())) }
		w.inboxes[k] = in
	}
	return in
}

// arrived notes that block i has landed and, if the owner is parked on
// exactly that block, schedules its continuation — the wake a landing
// gives a posted receiver.
func (in *inbox) arrived(i int) {
	if t := in.waiter; t != nil && in.q[i].v.is(t.seq, t.step) {
		in.waiter = nil
		t.c.w.engine.After(0, t.resume)
	}
}

// take consumes the block of allgather seq's step if it has landed and
// reports whether it did. The block must come from the member the
// owner's algorithm names; one from another member means the members
// did not run the same algorithm (different block sizes).
func (in *inbox) take(seq, step, from int) bool {
	for i := in.head; i < len(in.q); i++ {
		b := &in.q[i]
		if b.taken || !b.v.is(seq, step) {
			continue
		}
		if int(b.v.from) != from {
			panic(fmt.Sprintf("mpi: allgather #%d step %d: block from rank %d, receiver expects rank %d", seq, step, b.v.from, from))
		}
		if !b.landed {
			return false
		}
		in.consume(i)
		return true
	}
	return false
}

// allgatherTask is one member's allgather state: where a coroutine's
// program counter and locals would have been. A communicator member
// runs one allgather at a time, so the record (and its bound step
// function) is built once per Comm and reused by every call.
type allgatherTask struct {
	c      *Comm
	in     *inbox // mine
	resume func() // t.advance, bound once

	alg    allgatherAlg
	seq    int // allgathers started on this comm, this one included
	bytes  int64
	step   int
	steps  int
	phase  agPhase
	to     int    // comm rank this step's block goes to
	out    *inbox // to's inbox
	intra  bool   // this step's block stays on my node: I hand it over myself
	parked bool   // the owning process is in Park, to be resumed on completion
}

// agPhase is where within a step the task resumes.
type agPhase uint8

const (
	agSend agPhase = iota // inject this step's block
	agSent                // injection wait over: hand an intra-node block to the peer
	agRecv                // take the peer's block
)

// allgatherTask returns (lazily creating) this member's task record.
func (c *Comm) allgatherTask() *allgatherTask {
	if c.ag == nil {
		t := &allgatherTask{c: c, in: c.w.inbox(c.ctx, c.group[c.rank], len(c.group)), to: -1}
		t.resume = t.advance
		c.ag = t
	}
	return c.ag
}

// start begins an allgather and reports whether it ran to completion
// without waiting.
func (t *allgatherTask) start(alg allgatherAlg, bytes int64) bool {
	t.seq++
	t.alg, t.bytes, t.step, t.phase = alg, bytes, 0, agSend
	t.steps = alg.steps(len(t.c.group))
	t.advance()
	return t.step == t.steps
}

// block is the message of the task's current step.
func (t *allgatherTask) block() agBlock {
	return agBlock{seq: int32(t.seq), step: int32(t.step), from: int32(t.c.rank)}
}

// advance runs the allgather from wherever it stopped until it must wait
// again or finishes: on the caller's stack first, then as the callback
// of each continuation event. Per step it is the coroutine's
// send-then-receive, statement for statement.
func (t *allgatherTask) advance() {
	c := t.c
	w := c.w
	p := len(c.group)
	for {
		switch t.phase {
		case agSend:
			to, _ := t.alg.peers(c.rank, t.step, p)
			if to != t.to {
				t.to, t.out = to, w.inbox(c.ctx, c.group[to], p)
			}
			var free, arrival float64
			free, arrival, t.intra = w.inject(c.group[c.rank], c.group[to], c.ctx, tagAllgather+stepTag(t.step), int64(t.alg.blocks(t.step, p))*t.bytes)
			if !t.intra {
				t.out.fly(w.engine, arrival, t.block(), t.out.land)
			}
			t.phase = agSent
			if !w.engine.ContinueAt(free, t.resume) {
				return
			}
		case agSent:
			if t.intra {
				t.out.arrived(t.out.put(t.block()))
			}
			t.phase = agRecv
		case agRecv:
			if _, from := t.alg.peers(c.rank, t.step, p); !t.in.take(t.seq, t.step, from) {
				t.in.waiter = t
				return
			}
			t.step++
			t.phase = agSend
			if t.step == t.steps {
				if t.parked {
					t.parked = false
					w.engine.Resume(c.p)
				}
				return
			}
		}
	}
}

// String is the owning process's wait reason in a deadlock report.
func (t *allgatherTask) String() string {
	c := t.c
	p := len(c.group)
	to, from := t.alg.peers(c.rank, t.step, p)
	what := fmt.Sprintf("sending to rank %d", to)
	if t.phase == agRecv {
		what = fmt.Sprintf("receiving from rank %d", from)
	}
	return fmt.Sprintf("allgather #%d on comm%x (%s): rank %d of %d at step %d of %d, %s",
		t.seq, c.ctx, t.alg, c.rank, p, t.step, t.steps, what)
}
