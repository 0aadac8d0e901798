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
// another goroutine corrupts the scheduler handshake.
type Proc struct {
	e         *Engine
	name      string
	id        int
	resume    chan struct{}
	state     procState
	waitingOn string // human-readable reason, for deadlock reports

	// waitingFor, when non-nil, supersedes waitingOn: a reason rendered
	// only if a deadlock report needs it (see Park).
	waitingFor fmt.Stringer
}

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
// The run token is handed directly to the next runnable process; see
// Engine.handoff.
func (p *Proc) park(reason string) {
	p.e.parks++
	p.state = stateParked
	p.waitingOn = reason
	if !p.e.handoff(p) {
		<-p.resume
	}
	p.state = stateRunning
	p.waitingOn = ""
}

// Park blocks the process until a callback returns control to it with
// Engine.Resume. It is the process side of a computation that advances
// as engine callbacks: the process starts it, parks once for however
// many steps it takes, and is resumed by the step that finishes it.
// why describes the wait for deadlock reports and is rendered only
// then, so it may report progress made while the process was parked.
func (p *Proc) Park(why fmt.Stringer) {
	p.waitingFor = why
	p.park("")
	p.waitingFor = nil
}

// wake schedules the process to resume at the current virtual time.
func (p *Proc) wake() {
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
		p.park("sleep 0")
		return
	}
	at := p.e.now + d
	if p.e.advanceInline(at) {
		return
	}
	p.e.schedule(at, p, nil)
	p.park("sleep")
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
	p.park("waituntil")
}

// Yield reschedules the process at the current time, letting other
// ready processes run first.
func (p *Proc) Yield() {
	p.e.schedule(p.e.now, p, nil)
	p.park("yield")
}
