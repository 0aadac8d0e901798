package mpi

import (
	"fmt"

	"repro/internal/simtime"
)

// The ring allgather is the one collective that runs as an engine-driven
// task rather than on its caller's stack. A p-member ring is p·(p−1)
// messages; as coroutine code each cost the sender a park, usually the
// receiver another, and a mailbox lookup, and at a few hundred ranks
// that was most of a run's host time. The task keeps every one of those
// events — same instant, same tie-break sequence — but makes them
// callbacks that advance a per-rank record (ringTask), so the owning
// process parks once per collective instead of up to 2·(p−1) times.
//
// The rule that keeps the trajectory exact, checked against the
// coroutine ring by TestRingTaskMatchesCoroutineRing:
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

// ringKey names one member's ring inbox.
type ringKey struct {
	ctx  uint64
	rank int // world rank of the owning member
}

// ringMsg is one ring block on its way from a member to its right
// neighbour. It carries no value: every member reads the blocks from the
// one shared result slice, filled in by their owners before they sent
// them, so the ring only has to reproduce when each member may proceed.
type ringMsg struct {
	at     float64 // inter-node: the instant its arrival event fires
	landed bool    // arrived; the owner may take it
	seq    int     // the sender's allgather sequence number on the comm
	step   int
}

// ringInbox holds the blocks a member's left neighbour has sent it and
// it has not consumed, in send order — which, under the SPMD contract,
// is also the order the owner consumes them, so the block the owner
// wants next is always the head. One inbox per (context, member)
// replaces the 63 per-step mailboxes the coroutine ring kept per pair.
type ringInbox struct {
	e      *simtime.Engine
	q      []ringMsg
	head   int       // oldest unconsumed block
	next   int       // first block not yet landed; entries before it have all landed
	waiter *ringTask // the owner's task, parked on the head block
	land   func()    // arrival event of one inter-node block, allocated once
}

// ring returns (lazily creating) the inbox of world rank `rank` in
// communicator context ctx.
func (w *World) ring(ctx uint64, rank int) *ringInbox {
	k := ringKey{ctx: ctx, rank: rank}
	in := w.rings[k]
	if in == nil {
		in = &ringInbox{e: w.engine}
		in.land = in.landOne
		w.rings[k] = in
	}
	return in
}

// put appends a block that has already arrived (intra-node: the sender
// hands it over itself once its bus pass is done).
func (in *ringInbox) put(seq, step int) {
	in.q = append(in.q, ringMsg{seq: seq, step: step})
	in.arrived(len(in.q) - 1)
}

// fly appends a block in flight and schedules its arrival. The event
// time is spelled now+(arrival−now), as World.deliver spells it, so the
// two agree to the last bit.
func (in *ringInbox) fly(arrival float64, seq, step int) {
	d := arrival - in.e.Now()
	in.q = append(in.q, ringMsg{at: in.e.Now() + d, seq: seq, step: step})
	in.e.After(d, in.land)
}

// landOne is the arrival event of one in-flight block: the oldest one
// due now. Arrivals follow send order except under fault delays, which
// are clamped per (pair, step tag) only; events due at the same instant
// fire in send order, so "oldest due now" is exactly the block this
// event was scheduled for.
func (in *ringInbox) landOne() {
	now := in.e.Now()
	i := in.next
	for in.q[i].landed || in.q[i].at != now {
		i++
	}
	in.arrived(i)
}

// arrived marks block i landed and, if the owner is parked on exactly
// that block, schedules its continuation — the wake a mailbox Put gave
// a blocked receiver.
func (in *ringInbox) arrived(i int) {
	in.q[i].landed = true
	for in.next < len(in.q) && in.q[in.next].landed {
		in.next++
	}
	if t := in.waiter; t != nil && i == in.head {
		in.waiter = nil
		in.e.After(0, t.resume)
	}
}

// take removes the head block if it has landed and reports whether it
// did. The owner names the (sequence, step) it expects; anything else at
// the head means the members did not issue their allgathers in the same
// order.
func (in *ringInbox) take(seq, step int) bool {
	if in.head == len(in.q) || !in.q[in.head].landed {
		return false
	}
	if m := in.q[in.head]; m.seq != seq || m.step != step {
		panic(fmt.Sprintf("mpi: ring inbox holds allgather #%d step %d, receiver expects #%d step %d", m.seq, m.step, seq, step))
	}
	in.head++
	if in.head == len(in.q) {
		in.q = in.q[:0]
		in.head, in.next = 0, 0
	}
	return true
}

// ringTask is one member's allgather state: where a coroutine's program
// counter and locals would have been. A communicator member runs one
// allgather at a time, so the record (and its bound step function) is
// built once per Comm and reused by every call.
type ringTask struct {
	c         *Comm
	in, right *ringInbox // my inbox; my right neighbour's
	rightRank int        // world rank of the right neighbour
	resume    func()     // t.advance, bound once

	seq    int // allgathers started on this comm, this one included
	bytes  int64
	step   int
	phase  ringPhase
	intra  bool // this step's block stays on my node: I hand it over myself
	parked bool // the owning process is in Park, to be resumed on completion
}

// ringPhase is where within a step the task resumes.
type ringPhase uint8

const (
	ringSend ringPhase = iota // inject this step's block
	ringSent                  // injection wait over: hand an intra-node block to the neighbour
	ringRecv                  // take the left neighbour's block
)

// ringTask returns (lazily creating) this member's task record.
func (c *Comm) ringTask() *ringTask {
	if c.ag == nil {
		right := c.group[(c.rank+1)%len(c.group)]
		t := &ringTask{
			c:         c,
			in:        c.w.ring(c.ctx, c.group[c.rank]),
			right:     c.w.ring(c.ctx, right),
			rightRank: right,
		}
		t.resume = t.advance
		c.ag = t
	}
	return c.ag
}

// start begins an allgather and reports whether it ran to completion
// without waiting.
func (t *ringTask) start(bytes int64) bool {
	t.seq++
	t.bytes, t.step, t.phase = bytes, 0, ringSend
	t.advance()
	return t.step == len(t.c.group)-1
}

// advance runs the ring from wherever it stopped until it must wait
// again or finishes: on the caller's stack first, then as the callback
// of each continuation event. Per step it is the coroutine ring's
// send-then-receive, statement for statement.
func (t *ringTask) advance() {
	c := t.c
	w := c.w
	p := len(c.group)
	for {
		switch t.phase {
		case ringSend:
			var free, arrival float64
			free, arrival, t.intra = w.inject(c.group[c.rank], t.rightRank, c.ctx, tagAllgather+stepTag(t.step), t.bytes)
			if !t.intra {
				t.right.fly(arrival, t.seq, t.step)
			}
			t.phase = ringSent
			if !w.engine.ContinueAt(free, t.resume) {
				return
			}
		case ringSent:
			if t.intra {
				t.right.put(t.seq, t.step)
			}
			t.phase = ringRecv
		case ringRecv:
			if !t.in.take(t.seq, t.step) {
				t.in.waiter = t
				return
			}
			t.step++
			t.phase = ringSend
			if t.step == p-1 {
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
func (t *ringTask) String() string {
	c := t.c
	p := len(c.group)
	what := fmt.Sprintf("sending to rank %d", (c.rank+1)%p)
	if t.phase == ringRecv {
		what = fmt.Sprintf("receiving from rank %d", (c.rank-1+p)%p)
	}
	return fmt.Sprintf("allgather #%d on comm%x: rank %d of %d at step %d, %s",
		t.seq, c.ctx, c.rank, p, t.step, what)
}
