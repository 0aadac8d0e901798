// Package simtime implements a deterministic discrete-event simulation
// engine with coroutine-style virtual processes.
//
// The engine owns a virtual clock and an event queue. Simulated
// processes (Proc) are runtime coroutines (iter.Pull) that Run's
// goroutine resumes one at a time: a process runs until it blocks on a
// simulation primitive (Sleep, Chan.Get, Barrier.Await, ...), and the
// clock then advances to the next event. A hand-off is two coroswitches
// on one thread, never a trip through the Go scheduler. Because exactly
// one process is runnable at any instant and ties are broken by
// sequence number, a simulation is bit-reproducible across runs.
//
// Time is a float64 in seconds. Durations must be non-negative; the
// engine panics on attempts to schedule into the past, which always
// indicates a model bug rather than a recoverable condition.
package simtime

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
)

// event is a scheduled occurrence: either the resumption of a parked
// process or the invocation of a bare callback (timer). Events are
// stored by value in a flat heap — no per-event boxing — because the
// queue is the single hottest allocation site of a large simulation
// (millions of schedule calls per run).
type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	p   *Proc  // non-nil: resume this process
	fn  func() // non-nil: run this callback
}

// eventQueue is a hand-rolled binary min-heap of event values ordered
// by (at, seq), beside a FIFO of the events scheduled at exactly the
// current instant (a fifth of all pushes), which cost an append instead
// of a sift. A heap event at that instant was pushed while the clock was
// earlier, so its seq precedes every FIFO entry's. Events are stored by
// value in arrays reused across the run: steady-state scheduling is
// allocation-free.
type eventQueue struct {
	heap []event
	fifo []event // events at now, in seq order, from head on
	head int
}

// len is the number of events queued.
func (q *eventQueue) len() int { return len(q.heap) + len(q.fifo) - q.head }

// before orders events by time, FIFO (schedule order) within one instant.
func before(a, b *event) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// push inserts ev, scheduled while the clock reads now, at the FIFO's
// tail (shifting out taken entries when full) or its heap position.
func (q *eventQueue) push(ev event, now float64) {
	if ev.at == now {
		if q.head > 0 && len(q.fifo) == cap(q.fifo) {
			n := copy(q.fifo, q.fifo[q.head:])
			clear(q.fifo[n:])
			q.fifo, q.head = q.fifo[:n], 0
		}
		q.fifo = append(q.fifo, ev)
		return
	}
	q.heap = append(q.heap, ev)
	q.siftUp(len(q.heap)-1, ev)
}

// pop removes and returns the earliest event: the heap's while its top
// is at now, then the FIFO's. It panics on an empty queue: the run loop
// checks emptiness first, so a bare pop always indicates a scheduler bug.
func (q *eventQueue) pop(now float64) event {
	if q.head < len(q.fifo) && (len(q.heap) == 0 || q.heap[0].at > now) {
		ev := q.fifo[q.head]
		q.fifo[q.head] = event{} // release the fn/proc references
		if q.head++; q.head == len(q.fifo) {
			q.fifo, q.head = q.fifo[:0], 0
		}
		return ev
	}
	h := q.heap
	n := len(h) - 1
	ev, last := h[0], h[n]
	h[n] = event{} // release the fn/proc references
	h, q.heap = h[:n], h[:n]
	// Floyd's pop: move the hole at the root down the smaller children to
	// a leaf, then sift the last event up from there. It is usually due
	// late and belongs near the leaves, so this costs one comparison per
	// level where sifting it down from the root costs two.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && before(&h[c+1], &h[c]) {
			c++
		}
		h[i], i = h[c], c
	}
	if n > 0 {
		q.siftUp(i, last)
	}
	return ev
}

// siftUp places ev at the hole i, moving it up toward the root past
// every parent it precedes.
func (q *eventQueue) siftUp(i int, ev event) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&ev, &h[parent]) {
			break
		}
		h[i], i = h[parent], parent
	}
	h[i] = ev
}

// Engine is a discrete-event simulation. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	events  eventQueue
	running bool

	procs   []*Proc // all spawned procs, for deadlock reporting and reclaim
	alive   int     // procs whose body has not returned
	stopped bool    // Stop was called

	// resumed is the parked process the running callback named with
	// Resume; next returns it as soon as that callback returns.
	resumed *Proc

	// party is the next member of the barrier release being dispatched
	// (see scheduleParty): the rest of its chain precedes every queued
	// event, so next takes it before popping again.
	party *Proc

	// Park census (see Stats). Plain counters: one coroutine executes
	// simulation code at a time.
	parks, dispatches, callbacks, inline uint64
}

// Stats is the engine's park census: how often the simulation paid for
// each kind of step since NewEngine. Parks and Dispatches are the
// coroutine switches that dominate host time; Callbacks and Inline are
// the steps that avoided one. Reading it changes nothing simulated.
type Stats struct {
	Parks      uint64 // times a process blocked on a primitive
	Dispatches uint64 // times a process was handed the run token
	Callbacks  uint64 // callback events run in place
	Inline     uint64 // clock advances taken without an event
	Scheduled  uint64 // events scheduled: the last tie-break sequence issued
}

// Stats returns the census so far. It may be called at any time from
// simulation context, or after Run returns.
func (e *Engine) Stats() Stats {
	return Stats{Parks: e.parks, Dispatches: e.dispatches, Callbacks: e.callbacks, Inline: e.inline, Scheduled: e.seq}
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// nextSeq returns a monotonically increasing tie-break sequence.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// schedule inserts an event at absolute time at.
func (e *Engine) schedule(at float64, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("simtime: schedule into the past: at=%g now=%g", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("simtime: schedule at non-finite time %g", at))
	}
	e.events.push(event{at: at, seq: e.nextSeq(), p: p, fn: fn}, e.now)
}

// scheduleParty wakes first and then each of rest at time at, in that
// order, as one queue entry: the entry takes first's sequence number
// and reserves the next len(rest), which the rest would have taken as
// events of their own. Nothing can be scheduled between them, and
// everything queued before the entry at the same instant precedes it,
// so once the entry is popped its chain goes ahead of every other event
// — next walks it in place — and the dispatch order, the clock and
// Stats are those of one event per member. Each member must be parked
// with no other wake pending.
func (e *Engine) scheduleParty(at float64, first *Proc, rest []*Proc) {
	e.schedule(at, first, nil)
	first.partySeq = e.seq
	prev := first
	for _, w := range rest {
		prev.link, prev = w, w
	}
	prev.link = nil
	e.seq += uint64(len(rest))
}

// advanceInline reports whether the running process (or callback) may
// advance the clock to at without parking: no pending event precedes
// at, so a park would be immediately followed by its own resumption.
// Skipping the round trip elides the queue push and pop — the
// dominant host cost of chained resource reservations (storage
// batches, message injection). An event already queued AT at must
// still win (its tie-break sequence predates the wake we would have
// scheduled), hence the strict comparison; an event due now (in the
// FIFO) always does. After Stop the slow path is kept so a looping
// process still yields control to the drained run loop.
func (e *Engine) advanceInline(at float64) bool {
	if !e.running || e.stopped || e.party != nil {
		return false
	}
	if q := &e.events; q.head < len(q.fifo) || len(q.heap) != 0 && q.heap[0].at <= at {
		return false
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("simtime: advance to non-finite time %g", at))
	}
	e.now = at
	e.inline++
	return true
}

// After schedules fn to run after delay d. It may be called from inside
// a running process or before Run.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %g", d))
	}
	e.schedule(e.now+d, nil, fn)
}

// ContinueAt is Proc.WaitUntil for a computation that runs as engine
// callbacks instead of on a process's stack. Where WaitUntil would
// advance the clock inline, ContinueAt does the same and reports true:
// the caller carries on. Where WaitUntil would park, ContinueAt
// schedules fn as the continuation at the instant (and with the
// tie-break sequence) the process's own wake would have taken — the
// current time when t is not in the future, else t — and reports false:
// the caller returns and fn picks up from there. The caller must hold
// the run token, as a process body or a callback does.
func (e *Engine) ContinueAt(t float64, fn func()) bool {
	if t > e.now && e.advanceInline(t) {
		return true
	}
	if t < e.now {
		t = e.now
	}
	e.schedule(t, nil, fn)
	return false
}

// Resume hands the run token to p, which must be blocked in Proc.Park,
// as soon as the calling callback returns: p runs in the callback's own
// queue slot, before any other event. It is how a computation driven by
// callbacks returns control to the process that started it. Only a
// callback may call Resume, and at most once per invocation.
func (e *Engine) Resume(p *Proc) {
	if e.resumed != nil {
		panic(fmt.Sprintf("simtime: Resume(%s) while %s is already named", p.name, e.resumed.name))
	}
	if p.state != stateParked {
		panic(fmt.Sprintf("simtime: Resume(%s): process is not parked", p.name))
	}
	e.resumed = p
}

// errUnwound is the panic park raises in a process Run is reclaiming;
// Spawn's wrapper recovers it, so it never leaves the process.
var errUnwound = errors.New("simtime: process unwound by Run")

// Spawn creates a simulated process executing body and schedules it to
// start at the current virtual time. It is safe to call both before Run
// and from inside a running process. The process is a coroutine whose
// yield hands Run the process to dispatch next; a panic in body crosses
// the switch and surfaces at Run's caller with its original value.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{e: e, name: name, id: len(e.procs), state: stateReady}
	e.procs = append(e.procs, p)
	e.alive++
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield, p.state = yield, stateRunning
		defer func() {
			p.state = stateDone
			e.alive--
			if r := recover(); r != nil && r != errUnwound {
				panic(r)
			}
		}()
		body(p)
	})
	e.schedule(e.now, p, nil)
	return p
}

// next drains events on the caller's stack until one resumes a process
// — its own wake event, a member of a barrier release (scheduleParty)
// or a callback that named it with Resume — and returns that process
// (without dispatching it), or nil when the queue is empty or Stop was
// called. Callback (timer) events run inline here: exactly one
// coroutine executes simulation code at a time, so a callback is safe
// on whichever stack holds the run token, and running it in place saves
// a switch to Run and back per timer.
func (e *Engine) next() *Proc {
	for !e.stopped {
		p := e.party
		if p != nil {
			e.party, p.link = p.link, nil
		} else {
			if e.events.len() == 0 {
				return nil
			}
			ev := e.events.pop(e.now)
			if ev.at < e.now {
				panic("simtime: time went backwards")
			}
			e.now = ev.at
			if ev.p == nil {
				if ev.fn != nil {
					e.callbacks++
					ev.fn()
					if p := e.resumed; p != nil {
						e.resumed = nil
						e.dispatches++
						return p
					}
				}
				continue
			}
			if p = ev.p; p.partySeq == ev.seq { // a barrier release: the party follows p
				e.party, p.link = p.link, nil
			}
		}
		if p.state == stateDone {
			continue // proc was killed/finished before its wake fired
		}
		if p.stand > 0 { // standing through this release (Barrier.AwaitDelay)
			e.stepStanding(p)
			continue
		}
		e.dispatches++
		return p
	}
	return nil
}

// stepStanding runs standing p's step from where it stopped, waiting as
// Proc.WaitUntil would: inline where it may, else from a queue entry of
// p's own — the (at, seq) its wake would take — at which next brings it
// back here. Once the step is done, p re-arrives at its barrier where
// it would have on its own stack.
func (e *Engine) stepStanding(p *Proc) {
	for s := p.standStep; s != nil; {
		t, more := s.Next()
		if !more {
			break
		}
		if t <= e.now || !e.advanceInline(t) {
			e.schedule(max(t, e.now), p, nil)
			return
		}
	}
	p.stand--
	p.standAt.arrive(p, p.standDelay)
}

// Run executes events until none remain or Stop is called. Its
// goroutine is the hub: it resumes a process, which runs (draining
// events itself when it parks, see Proc.park) until the next event is
// another process's, and yields that process back here to be resumed.
// It returns a DeadlockError if processes are still parked when the
// event queue drains, which indicates the simulated system wedged (for
// example a Recv with no matching Send). However Run ends — a panic
// from a body or callback included — no process outlives it (reclaim).
func (e *Engine) Run() error {
	if e.running {
		panic("simtime: Run reentered")
	}
	e.running = true
	defer e.reclaim()
	for p := e.next(); p != nil; {
		nxt, parked := p.next()
		if !parked {
			nxt = e.next() // body returned; the hub finds its successor
		}
		p = nxt
	}
	if e.alive > 0 && !e.stopped {
		return e.deadlock() // built before reclaim: it reads process states
	}
	return nil
}

// reclaim unwinds every process Run is abandoning. stop makes the
// process's pending (or first) yield report false; park turns that into
// an errUnwound panic, which runs the body's deferred calls and is
// recovered by Spawn's wrapper, and the coroutine's goroutine exits.
// stopped is set first so a deferred call that parks advances nothing.
func (e *Engine) reclaim() {
	e.running = false
	e.stopped = e.stopped || e.alive > 0
	for _, p := range e.procs {
		if p.state != stateDone {
			p.stop()
		}
	}
}

// Stop terminates Run after the current event completes. Run unwinds
// the processes still parked before it returns, so nothing leaks; Stop
// is still meant for error paths and examples, not for the steady state
// of a model.
func (e *Engine) Stop() { e.stopped = true }

// deadlock builds the error describing all parked processes.
func (e *Engine) deadlock() error {
	var blocked []string
	for _, p := range e.procs {
		if p.state == stateParked || p.state == stateReady {
			reason := ""
			if p.waiting != nil {
				reason = p.waiting.String()
			}
			blocked = append(blocked, fmt.Sprintf("%s (waiting: %s)", p.name, reason))
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: e.now, Blocked: blocked}
}

// DeadlockError reports that the event queue drained while processes
// were still blocked.
type DeadlockError struct {
	Now     float64  // virtual time at which the simulation wedged
	Blocked []string // names of blocked processes with their wait reasons
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("simtime: deadlock at t=%g: %d blocked procs: %v", d.Now, len(d.Blocked), d.Blocked)
}
