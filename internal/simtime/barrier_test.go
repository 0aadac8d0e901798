package simtime

import (
	"fmt"
	"reflect"
	"testing"
)

// party is what a scripted scenario needs of a barrier.
type party interface {
	Await(p *Proc)
	AwaitDelay(p *Proc, delay float64)
}

// eventBarrier is the release Barrier had before it was batched: one
// queue event per member, the releaser's first and then the waiters' in
// arrival order. TestBatchedReleaseMatchesPerPartyEvents holds Barrier
// to it.
type eventBarrier struct {
	e                     *Engine
	parties, arrived, gen int
	waiters               []*Proc
}

func (b *eventBarrier) String() string { return "event barrier" }

func (b *eventBarrier) await(p *Proc, at float64, parkReleaser bool) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		if parkReleaser {
			b.e.schedule(at, p, nil)
		}
		for _, w := range b.waiters {
			b.e.schedule(at, w, nil)
		}
		b.waiters = b.waiters[:0]
		if parkReleaser {
			p.park(b)
		}
		return
	}
	gen := b.gen
	b.waiters = append(b.waiters, p)
	for gen == b.gen {
		p.park(b)
	}
}

func (b *eventBarrier) Await(p *Proc)                     { b.await(p, b.e.now, false) }
func (b *eventBarrier) AwaitDelay(p *Proc, delay float64) { b.await(p, b.e.now+delay, true) }

// TestBatchedReleaseMatchesPerPartyEvents: a barrier release queued as
// one entry that chains the party (Engine.scheduleParty) runs the very
// trajectory — every step at the same instant in the same order — and
// leaves the very census, Scheduled included, as one event per member,
// in the cases where the chain could differ: events already queued at
// the release instant before and after the release entry, a member
// that schedules at the release instant or sleeps before the rest of
// the party has run, members (the releaser among them) that finished
// before their turn, and Stop in the middle of the chain.
func TestBatchedReleaseMatchesPerPartyEvents(t *testing.T) {
	type script func(e *Engine, mk func(parties int) party, note func(string))
	// member runs one party member: log, optionally arrive late, wait,
	// log again, then do after.
	member := func(e *Engine, b party, note func(string), name string, arrive, delay float64, after func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(arrive)
			note(name + " arrives")
			if delay < 0 {
				b.Await(p)
			} else {
				b.AwaitDelay(p, delay)
			}
			note(name + " released")
			if after != nil {
				after(p)
			}
			note(name + " done")
		})
	}
	for _, c := range []struct {
		name string
		run  script
	}{
		{"events at the release instant on both sides of the entry", func(e *Engine, mk func(int) party, note func(string)) {
			b := mk(3)
			e.After(2, func() { note("timer queued first") }) // precedes the release entry
			e.Spawn("sleeper", func(p *Proc) {
				p.Sleep(1.5) // after the release: its wake follows the entry
				note("sleeper wakes")
				e.After(0.5, func() { note("timer queued after") })
				p.Sleep(0.5)
				note("sleeper at the release instant")
			})
			for i, arrive := range []float64{0.25, 0.5, 1} {
				member(e, b, note, fmt.Sprint("m", i), arrive, 1, nil)
			}
		}},
		{"the first resumed schedules at the release instant", func(e *Engine, mk func(int) party, note func(string)) {
			b := mk(4)
			for i := 0; i < 4; i++ {
				after := func(p *Proc) { p.Yield() }
				if i == 3 { // the releaser, first in the chain
					after = func(p *Proc) {
						e.After(0, func() { note("callback at the release instant") })
						p.Sleep(0)
						note("releaser again")
						p.Sleep(0.5)
					}
				}
				member(e, b, note, fmt.Sprint("m", i), float64(i), 2, after)
			}
		}},
		{"the first resumed advances the clock with the party pending", func(e *Engine, mk func(int) party, note func(string)) {
			b := mk(3)
			for i := 0; i < 3; i++ {
				member(e, b, note, fmt.Sprint("m", i), float64(i), 1, func(p *Proc) { p.Sleep(0.25) })
			}
		}},
		{"members done before their turn", func(e *Engine, mk func(int) party, note func(string)) {
			b := mk(4)
			var procs []*Proc
			for i := 0; i < 4; i++ {
				name := fmt.Sprint("m", i)
				procs = append(procs, e.Spawn(name, func(p *Proc) {
					p.Sleep(float64(i))
					note(name + " arrives")
					b.AwaitDelay(p, 3)
					note(name + " released")
					p.Yield()
					note(name + " done")
				}))
			}
			// Mid-delay, a callback hands the run token to a waiter and,
			// later, to the releaser: both finish before the chain gets
			// to them, the releaser through a wake of its own while the
			// entry that chains the party still waits.
			e.After(4, func() { note("resume m1"); e.Resume(procs[1]) })
			e.After(5, func() { note("resume m3"); e.Resume(procs[3]) })
		}},
		{"Stop mid-chain", func(e *Engine, mk func(int) party, note func(string)) {
			b := mk(4)
			e.After(3, func() { note("timer before the release") })
			for i := 0; i < 4; i++ {
				var after func(*Proc)
				if i == 1 {
					after = func(p *Proc) { e.Stop(); p.Yield() }
				}
				member(e, b, note, fmt.Sprint("m", i), float64(i)/2, 1.5, after)
			}
		}},
		{"Await releases at the current instant", func(e *Engine, mk func(int) party, note func(string)) {
			b := mk(3)
			e.After(2, func() { note("timer at the release instant") })
			for i := 0; i < 3; i++ {
				member(e, b, note, fmt.Sprint("m", i), float64(i), -1, func(p *Proc) { p.Sleep(0) })
			}
			member(e, mk(1), note, "solo", 2, -1, nil) // a party of one has nobody to release
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(perParty bool) ([]string, Stats) {
				e := NewEngine()
				var log []string
				note := func(what string) { log = append(log, fmt.Sprintf("%g %s", e.Now(), what)) }
				mk := func(parties int) party {
					if perParty {
						return &eventBarrier{e: e, parties: parties}
					}
					return NewBarrier(e, "b", parties)
				}
				c.run(e, mk, note)
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
				return log, e.Stats()
			}
			want, wantStats := run(true)
			got, gotStats := run(false)
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("batched release diverges:\nbatched   %+v %q\nper party %+v %q", gotStats, got, wantStats, want)
			}
		})
	}
}
