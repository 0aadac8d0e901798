package simtime

import "fmt"

// Chan is an unbounded FIFO mailbox between simulated processes. Put is
// non-blocking; Get blocks the calling process until an item arrives.
// It models an eager message channel: transfer cost is the sender's
// concern (charge time before Put), not the channel's.
type Chan[T any] struct {
	e       *Engine
	name    string
	items   []T
	head    int // index of the oldest live item; items[:head] are consumed
	waiters []*Proc
}

// NewChan returns an empty mailbox bound to engine e.
func NewChan[T any](e *Engine, name string) *Chan[T] { return &Chan[T]{e: e, name: name} }

// String is the mailbox as a wait reason.
func (c *Chan[T]) String() string { return "chan " + c.name }

// Put appends v and wakes the longest-waiting receiver, if any.
func (c *Chan[T]) Put(v T) {
	if c.head == len(c.items) {
		// Drained: restart at the front so steady-state Put/Get traffic
		// reuses the backing array instead of growing it forever (the
		// items[1:] idiom strands consumed capacity behind the slice base).
		c.items = c.items[:0]
		c.head = 0
	}
	c.items = append(c.items, v)
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		// Shift rather than re-slice so the backing array is reused; the
		// queue is almost always length 1, so the copy is a single move.
		copy(c.waiters, c.waiters[1:])
		c.waiters[len(c.waiters)-1] = nil
		c.waiters = c.waiters[:len(c.waiters)-1]
		w.Wake()
	}
}

// Get removes and returns the oldest item, blocking p until one exists.
func (c *Chan[T]) Get(p *Proc) T {
	for c.head == len(c.items) {
		c.waiters = append(c.waiters, p)
		p.park(c)
	}
	v := c.items[c.head]
	// Avoid retaining a reference in the backing array.
	var zero T
	c.items[c.head] = zero
	c.head++
	return v
}

// Len returns the number of queued items.
func (c *Chan[T]) Len() int { return len(c.items) - c.head }

// Barrier blocks a fixed-size party of processes until all have
// arrived. It is reusable: generation counting lets the same Barrier
// synchronise successive phases.
type Barrier struct {
	e       *Engine
	name    string
	parties int
	arrived int
	gen     int
	waiters []*Proc
}

// NewBarrier returns a barrier for the given party size.
func NewBarrier(e *Engine, name string, parties int) *Barrier {
	if parties <= 0 {
		panic(fmt.Sprintf("simtime: barrier %q with parties=%d", name, parties))
	}
	return &Barrier{e: e, name: name, parties: parties}
}

// String is the barrier as a wait reason.
func (b *Barrier) String() string { return "barrier " + b.name }

// Await blocks p until parties processes have called Await in the
// current generation. The last arriver releases everyone without
// blocking itself; the waiters resume in arrival order, as one queue
// entry (Engine.scheduleParty).
func (b *Barrier) Await(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		if len(b.waiters) > 0 {
			b.e.scheduleParty(b.e.now, b.waiters[0], b.waiters[1:])
		}
		b.waiters = b.waiters[:0]
		return
	}
	gen := b.gen
	b.waiters = append(b.waiters, p)
	for gen == b.gen {
		p.park(b)
	}
}

// AwaitDelay is Await with the release deferred by delay seconds: every
// member (the last arriver included) resumes at arrival-of-last + delay.
// Callers that would otherwise follow Await with a fixed Sleep (e.g. a
// modelled log₂p token cascade) should fold the sleep in here: the
// virtual outcome is identical — the releaser resumes first, then the
// waiters in arrival order, exactly as Await-then-Sleep interleaves —
// but each waiter parks once instead of twice, which halves the
// context-switch bill of a barrier at large party counts.
//
// With n > 1 it is n consecutive calls with step (nil: nothing) run
// between each and the next, and p parks once for all of them: in its
// slot of each of the first n-1 releases, instead of dispatching it,
// Engine.next runs step and re-arrives it. Every event and instant is
// the n calls'; only their parks and dispatches are saved. Nothing else
// may wake p.
func (b *Barrier) AwaitDelay(p *Proc, delay float64, n int, step Step) {
	if delay < 0 || n < 1 {
		panic(fmt.Sprintf("simtime: barrier %q with delay %g, count %d", b.name, delay, n))
	}
	p.stand, p.standAt, p.standDelay, p.standStep = n-1, b, delay, step
	gen := b.gen
	if b.arrive(p, delay) {
		p.park(b) // my own release entry resumes me
	}
	for gen == b.gen || p.stand > 0 {
		p.park(b)
	}
}

// Step is what a process standing through barrier releases
// (Barrier.AwaitDelay) does in each of them before it re-arrives, run by
// the engine in the process's place. Next runs its next part and
// returns the instant the process would wait until (Proc.WaitUntil)
// before the part after it, and true; or false once the step is done,
// ready to run again from its first part. A part must not block.
type Step interface {
	Next() (until float64, more bool)
}

// arrive counts p in and reports whether it released the generation:
// the last arriver, first in the release's one queue entry at now+delay,
// keeping the slot the unfolded Await + Sleep sequence gave it.
func (b *Barrier) arrive(p *Proc, delay float64) bool {
	if b.arrived++; b.arrived < b.parties {
		b.waiters = append(b.waiters, p)
		return false
	}
	b.arrived = 0
	b.gen++
	b.e.scheduleParty(b.e.now+delay, p, b.waiters)
	b.waiters = b.waiters[:0]
	return true
}
