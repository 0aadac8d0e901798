package simtime

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestBodyPanicSurfacesAtRun: a panic in a process body crosses the
// coroutine switch and arrives, with its original value, at Run's
// caller on the caller's own goroutine — where a recover() can turn it
// into an error — instead of killing the program from a goroutine
// nobody can guard.
func TestBodyPanicSurfacesAtRun(t *testing.T) {
	boom := errors.New("boom")
	e := NewEngine()
	b := NewBarrier(e, "b", 3)
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) { b.Await(p) })
	}
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1) // the waiters are parked by the time this fires
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != boom {
		t.Fatalf("recovered %v at Run's caller, want the body's own panic value %v", got, boom)
	}
	// The same holds for a callback, whichever stack it ran on.
	e = NewEngine()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	e.After(1, func() { panic(boom) })
	func() {
		defer func() { got = recover() }()
		got = nil
		e.Run()
	}()
	if got != boom {
		t.Fatalf("recovered %v from a callback panic, want %v", got, boom)
	}
}

// TestRunReclaimsProcesses: however Run ends — normally, by Stop, by
// deadlock or by a panic passing through — no process outlives it: the
// goroutine count is back to what it was before the first Spawn, and
// an abandoned body's deferred calls have run.
func TestRunReclaimsProcesses(t *testing.T) {
	const procs = 20
	// A process spawned as the run ends never starts; it is reclaimed too.
	unstarted := func(e *Engine) {
		e.Spawn("unstarted", func(*Proc) { t.Error("a process started after the run ended") })
	}
	cases := []struct {
		name string
		// last is the body of the one process that decides how the run
		// ends; the other procs-1 are blocked on the mailbox.
		last      func(e *Engine, p *Proc, c *Chan[int])
		wantErr   bool
		wantPanic bool
	}{
		{name: "normal", last: func(e *Engine, p *Proc, c *Chan[int]) {
			for i := 1; i < procs; i++ {
				c.Put(i)
			}
		}},
		{name: "stop", last: func(e *Engine, p *Proc, c *Chan[int]) { unstarted(e); e.Stop() }},
		{name: "deadlock", last: func(e *Engine, p *Proc, c *Chan[int]) {}, wantErr: true},
		{name: "panic", last: func(e *Engine, p *Proc, c *Chan[int]) { unstarted(e); panic("boom") }, wantPanic: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for rep := 0; rep < 10; rep++ {
				e := NewEngine()
				c := NewChan[int](e, "never")
				returned := 0
				for i := 1; i < procs; i++ {
					e.Spawn("stuck", func(p *Proc) {
						defer func() { returned++ }()
						c.Get(p)
					})
				}
				e.Spawn("last", func(p *Proc) {
					p.Sleep(1) // the others are parked by now
					tc.last(e, p, c)
				})
				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					err = e.Run()
				}()
				if (err != nil) != tc.wantErr || (panicked != nil) != tc.wantPanic {
					t.Fatalf("Run: err %v, panic %v", err, panicked)
				}
				if tc.wantErr {
					// The report was built before the processes were unwound.
					if de := err.(*DeadlockError); len(de.Blocked) != procs-1 || de.Blocked[0] != "stuck (waiting: chan never)" {
						t.Fatalf("deadlock report %v", de.Blocked)
					}
				}
				if returned != procs-1 {
					t.Fatalf("%d of %d blocked bodies ran their deferred calls", returned, procs-1)
				}
			}
			// (Fewer is fine: an earlier subtest's goroutine may still have
			// been exiting when before was read.)
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines: %d before the first Spawn, %d after the last Run", before, after)
			}
		})
	}
}

// TestUnwindingProcessAdvancesNothing: a deferred call that parks while
// its process is being unwound neither runs events nor moves the clock.
func TestUnwindingProcessAdvancesNothing(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		defer func() {
			defer func() { recover() }()
			e.After(1, func() { t.Error("event ran during reclaim") })
			p.Sleep(2)
			t.Error("Sleep returned in a process being unwound")
		}()
		NewChan[int](e, "never").Get(p)
	})
	if _, ok := e.Run().(*DeadlockError); !ok {
		t.Fatal("want a deadlock")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %g during reclaim", e.Now())
	}
}

// TestAllocsPerProcess pins what a process costs in heap objects from
// Spawn to the return of its body. iter.Pull makes it 14 where `go` + a
// channel made it 3; the pin keeps that from growing unnoticed with a
// Go release (BENCHMARK.json bounds allocs_per_op at 2 %, and sim-wide
// spawns 360 processes per op).
func TestAllocsPerProcess(t *testing.T) {
	const procs = 64
	body := func(p *Proc) { p.Sleep(1) }
	got := testing.AllocsPerRun(20, func() {
		e := NewEngine()
		e.procs = make([]*Proc, 0, procs)
		e.events.fifo = make([]event, 0, procs) // Spawn schedules at now,
		e.events.heap = make([]event, 0, procs) // Sleep(1) later
		for i := 0; i < procs; i++ {
			e.Spawn("p", body)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// Per run: the engine and its three slices. Per process: the Proc,
	// Spawn's closure, and iter.Pull's twelve (go1.24: seven captured
	// variables, four closures, the coro). A ceiling, not an equality:
	// an older or leaner runtime may do with fewer.
	const perProc = 14
	if limit := float64(4 + procs*perProc); got > limit {
		t.Fatalf("%v objects for %d processes (%.2f each), want at most %v (%d each)", got, procs, (got-4)/procs, limit, perProc)
	}
}
