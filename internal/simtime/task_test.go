package simtime

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// waitChain is the smallest engine-driven task: wait until each of
// times in turn, the way a process calling WaitUntil in a loop would,
// but as a chain of ContinueAt continuations with the owning process
// parked once.
type waitChain struct {
	e       *Engine
	p       *Proc
	times   []float64
	note    func(string)
	step    func()
	i       int
	waiting bool // a continuation is scheduled
	parked  bool // p is in Park
	done    bool
}

func (c *waitChain) advance() {
	if c.waiting {
		c.waiting = false
		c.note("woke")
	}
	for c.i < len(c.times) {
		t := c.times[c.i]
		c.i++
		if !c.e.ContinueAt(t, c.step) {
			c.waiting = true
			return
		}
		c.note("woke")
	}
	c.done = true
	if c.parked {
		c.parked = false
		c.e.Resume(c.p)
	}
}

// run is the owning process's side: start the chain, park once if it
// has to wait.
func (c *waitChain) run(p *Proc) {
	c.e, c.p, c.step = p.Engine(), p, c.advance
	if c.advance(); !c.done {
		c.parked = true
		p.Park(c)
	}
}

func (c *waitChain) String() string { return fmt.Sprintf("wait chain at %d of %d", c.i, len(c.times)) }

// spawnWaiter runs the waits on a process's stack (asTask false) or as a
// waitChain, logging every wake and the time the process moves on.
func spawnWaiter(e *Engine, name string, log *[]string, asTask bool, times []float64) {
	note := func(what string) { *log = append(*log, fmt.Sprintf("%s %s@%g", name, what, e.Now())) }
	e.Spawn(name, func(p *Proc) {
		if asTask {
			(&waitChain{times: times, note: note}).run(p)
		} else {
			for _, t := range times {
				p.WaitUntil(t)
				note("woke")
			}
		}
		note("done")
		p.Sleep(0.25)
		note("slept")
	})
}

// TestContinueAtMatchesWaitUntil is the equivalence the engine-driven
// allgather rests on: a wait chain spelled as callbacks interleaves with
// timers, other processes and equal-time events exactly as the same
// chain on a process's stack, and consumes the same number of events.
// The waits cover all three branches: already due (a yield), free to
// advance inline, and queued behind earlier events.
func TestContinueAtMatchesWaitUntil(t *testing.T) {
	run := func(asTask bool) ([]string, Stats) {
		e := NewEngine()
		var log []string
		e.After(1, func() { log = append(log, "timer@1") })
		e.After(2, func() { log = append(log, "timer@2") })
		spawnWaiter(e, "a", &log, asTask, []float64{0, 1, 1, 2, 2.5, 7})
		spawnWaiter(e, "b", &log, asTask, []float64{0.5, 2, 3})
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(1)
				log = append(log, fmt.Sprintf("sleeper@%g", p.Now()))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, e.Stats()
	}
	procLog, procStats := run(false)
	taskLog, taskStats := run(true)
	if !reflect.DeepEqual(taskLog, procLog) {
		t.Fatalf("task trajectory differs:\nproc: %v\ntask: %v", procLog, taskLog)
	}
	if taskStats.Scheduled != procStats.Scheduled || taskStats.Inline != procStats.Inline {
		t.Fatalf("task scheduled %d events with %d inline advances, process %d and %d",
			taskStats.Scheduled, taskStats.Inline, procStats.Scheduled, procStats.Inline)
	}
	if procStats.Inline == 0 {
		t.Fatal("scenario never advanced inline; it no longer covers that branch")
	}
	// What the task buys: each waiter parks once, not once per wait.
	if taskStats.Parks >= procStats.Parks {
		t.Fatalf("task parked %d times, process version %d", taskStats.Parks, procStats.Parks)
	}
}

// TestResumeRunsProcessInTheCallbackSlot: a process named by Resume
// runs as soon as the callback returns, ahead of an event that was
// already queued for the same instant.
func TestResumeRunsProcessInTheCallbackSlot(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Proc) {
		e.After(1, func() {
			order = append(order, "callback")
			e.Resume(p)
		})
		e.After(1, func() { order = append(order, "later event") })
		p.Park(reason("test"))
		order = append(order, fmt.Sprintf("p@%g", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"callback", "p@1", "later event"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestResumeMisusePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("Resume of a %s did not panic", what)
			}
		}()
		f()
	}
	e := NewEngine()
	var parked *Proc
	e.Spawn("parked", func(p *Proc) {
		parked = p
		p.Park(reason("test"))
	})
	e.Spawn("runner", func(p *Proc) {
		mustPanic("running process", func() { e.Resume(p) })
	})
	e.After(1, func() {
		e.Resume(parked)
		mustPanic("second process in one callback", func() { e.Resume(parked) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestParkReasonIsRenderedAtReportTime: Park's reason is a Stringer so
// a task can describe the progress it made while its process slept.
func TestParkReasonIsRenderedAtReportTime(t *testing.T) {
	e := NewEngine()
	progress := 0
	e.Spawn("p", func(p *Proc) {
		e.After(5, func() { progress = 3 })
		p.Park(stringerFunc(func() string { return fmt.Sprintf("task at step %d", progress) }))
	})
	err := e.Run()
	dl, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if got := strings.Join(dl.Blocked, ";"); got != "p (waiting: task at step 3)" {
		t.Fatalf("deadlock report %q", got)
	}
}

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }

// intBox is the mailbox censusScenario passes values through.
type intBox interface {
	Put(int)
	Get(*Proc) int
}

// censusScenario is a fixed little simulation touching every primitive:
// sleeps, a barrier, a mailbox (a Chan, unless c is given), a timer and
// a wait chain. probe runs at every logged step.
func censusScenario(e *Engine, log *[]string, probe func(), c intBox) {
	note := func(s string) {
		probe()
		*log = append(*log, s)
	}
	b := NewBarrier(e, "b", 3)
	if c == nil {
		c = NewChan[int](e, "c")
	}
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(float64(i+1) * 0.5)
			b.Await(p)
			if i == 0 {
				for k := 0; k < 2; k++ {
					note(fmt.Sprintf("got %d@%g", c.Get(p), p.Now()))
				}
				return
			}
			p.Sleep(float64(i))
			c.Put(i)
		})
	}
	e.After(0.75, func() { note("timer") })
	e.Spawn("w", func(p *Proc) {
		w := &waitChain{times: []float64{0, 0.75, 4, 9}}
		w.note = func(what string) { note(fmt.Sprintf("w %s@%g", what, e.Now())) }
		w.run(p)
	})
}

// censusWant is censusScenario's census.
var censusWant = Stats{Parks: 9, Dispatches: 13, Callbacks: 4, Inline: 2, Scheduled: 16}

// TestStatsCensus pins the census on censusScenario — golden-style, in
// the spirit of TestGoldenHostMetricsDoNotPerturb: the counts are exact
// and repeatable, and a run that reads Stats at every step produces the
// same trajectory and the same census as one that never looks.
func TestStatsCensus(t *testing.T) {
	run := func(observe bool) ([]string, Stats) {
		e := NewEngine()
		var log []string
		var last Stats
		censusScenario(e, &log, func() {
			if !observe {
				return
			}
			st := e.Stats()
			if st.Scheduled < last.Scheduled || st.Parks < last.Parks {
				t.Error("census went backwards")
			}
			last = st
		}, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, e.Stats()
	}
	log, got := run(false)
	if got != censusWant {
		t.Fatalf("census %+v, want %+v\ntrajectory: %v", got, censusWant, log)
	}
	if observed, st := run(true); !reflect.DeepEqual(observed, log) || st != got {
		t.Fatalf("reading Stats perturbed the run: census %+v, want %+v\nunobserved: %v\nobserved:   %v", st, got, log, observed)
	}
}

// wakeBox is a mailbox built on Park and Wake, the way a receive queue
// outside this package is: Get posts its process and parks it, Put wakes
// the posted one.
type wakeBox struct {
	items  []int
	waiter *Proc
}

func (b *wakeBox) Put(v int) {
	b.items = append(b.items, v)
	if p := b.waiter; p != nil {
		b.waiter = nil
		p.Wake()
	}
}

func (b *wakeBox) Get(p *Proc) int {
	for len(b.items) == 0 {
		b.waiter = p
		p.Park(reason("wake box"))
	}
	v := b.items[0]
	b.items = b.items[1:]
	return v
}

// TestWakeIsChanPutsWake: a wake from a process and a wake from a
// callback each take the next sequence number and resume the parked
// process at the current instant, from its own queue entry; and a
// mailbox built on Park and Wake leaves censusScenario's trajectory and
// census exactly as Chan does.
func TestWakeIsChanPutsWake(t *testing.T) {
	e := NewEngine()
	var log []string
	var sleeper *Proc
	e.Spawn("sleeper", func(p *Proc) {
		sleeper = p
		for i := 0; i < 2; i++ {
			p.Park(reason("test"))
			log = append(log, fmt.Sprintf("woke@%g", p.Now()))
		}
	})
	wake := func(by string) {
		before := e.Stats().Scheduled
		sleeper.Wake()
		if got := e.Stats().Scheduled; got != before+1 {
			t.Errorf("a wake from a %s took sequence numbers %d..%d, want just %d", by, before+1, got, before+1)
		}
		log = append(log, "wake by "+by)
	}
	e.Spawn("waker", func(p *Proc) {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Wake of a running process did not panic")
				}
			}()
			p.Wake()
		}()
		p.Sleep(1)
		wake("process")
		p.Sleep(1) // the sleeper's wake is due first
		log = append(log, fmt.Sprintf("waker@%g", p.Now()))
	})
	e.After(3, func() { wake("callback") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "wake by process woke@1 waker@2 wake by callback woke@3"; got != want {
		t.Errorf("trajectory %q, want %q", got, want)
	}

	var chanLog, wakeLog []string
	e = NewEngine()
	censusScenario(e, &chanLog, func() {}, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e = NewEngine()
	censusScenario(e, &wakeLog, func() {}, &wakeBox{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st != censusWant || !reflect.DeepEqual(wakeLog, chanLog) {
		t.Errorf("census on Park and Wake %+v, want %+v\ntrajectory %v, want %v", st, censusWant, wakeLog, chanLog)
	}
}
