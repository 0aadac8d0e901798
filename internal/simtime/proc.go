package simtime

import "fmt"

type procState int

const (
	stateReady   procState = iota // spawned, not yet dispatched
	stateRunning                  // currently executing
	stateParked                   // blocked on a primitive
	stateDone                     // body returned
)

// Proc is a simulated process. All methods must be called from the
// process's own body (the function passed to Spawn); calling them from
// anywhere else corrupts the coroutine hand-off.
type Proc struct {
	e     *Engine
	name  string
	id    int
	state procState

	// The process as a pulled coroutine (see Engine.Spawn): Run resumes
	// it with next, park suspends it with yield, reclaim ends it with stop.
	next  func() (*Proc, bool)
	yield func(*Proc) bool
	stop  func()

	// waiting is why the process is parked, rendered only if a deadlock
	// report needs it.
	waiting fmt.Stringer

	// A barrier release (Engine.scheduleParty) chains its members
	// through link; partySeq is the sequence number of the queue entry
	// whose chain starts here.
	link     *Proc
	partySeq uint64

	// The releases of standAt still to stand through in AwaitDelay.
	stand      int
	standAt    *Barrier
	standDelay float64
}

// reason is a fixed wait reason.
type reason string

func (r reason) String() string { return string(r) }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the spawn-order index of the process.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.e.now }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// park blocks the process until something reschedules it. The caller
// must have arranged a future wake (an event or a waiter-list entry).
// The process drains the event queue on its own stack first: callbacks
// run here, and if its own wake comes up before another process's it
// carries on with no switch at all. Otherwise it yields the process it
// found (nil: nothing left to run) for Run to resume. A false yield
// means Run is reclaiming this process: unwind the body.
func (p *Proc) park(why fmt.Stringer) {
	p.e.parks++
	p.state = stateParked
	p.waiting = why
	if nxt := p.e.next(); nxt != p && !p.yield(nxt) {
		panic(errUnwound)
	}
	p.state = stateRunning
}

// Park blocks the process until a callback returns control to it with
// Engine.Resume. It is the process side of a computation that advances
// as engine callbacks: the process starts it, parks once for however
// many steps it takes, and is resumed by the step that finishes it.
// why describes the wait for deadlock reports and is rendered only
// then, so it may report progress made while the process was parked.
func (p *Proc) Park(why fmt.Stringer) { p.park(why) }

// Wake schedules p, blocked in Park, to resume at the current instant
// from a queue entry of its own, taking the next sequence number: how
// Chan.Put wakes a receiver. A process or a callback may call it, once
// per Park.
func (p *Proc) Wake() {
	if p.state != stateParked {
		panic(fmt.Sprintf("simtime: Wake(%s): process is not parked", p.name))
	}
	p.e.schedule(p.e.now, p, nil)
}

// Sleep advances the process's virtual time by d seconds.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: %s: negative sleep %g", p.name, d))
	}
	if d == 0 {
		// Still go through the queue so simultaneous events interleave
		// fairly rather than one proc monopolising the step.
		p.e.schedule(p.e.now, p, nil)
		p.park(reason("sleep 0"))
		return
	}
	at := p.e.now + d
	if p.e.advanceInline(at) {
		return
	}
	p.e.schedule(at, p, nil)
	p.park(reason("sleep"))
}

// WaitUntil blocks until virtual time t. If t is in the past it is a
// yield (the process re-enters the run queue at the current time).
func (p *Proc) WaitUntil(t float64) {
	if t <= p.e.now {
		p.Yield()
		return
	}
	if p.e.advanceInline(t) {
		return
	}
	p.e.schedule(t, p, nil)
	p.park(reason("waituntil"))
}

// Yield reschedules the process at the current time, letting other
// ready processes run first.
func (p *Proc) Yield() {
	p.e.schedule(p.e.now, p, nil)
	p.park(reason("yield"))
}
