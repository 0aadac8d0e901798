package simtime

import (
	"fmt"
	"reflect"
	"testing"
)

// party is what a scripted scenario needs of a barrier.
type party interface {
	Await(p *Proc)
	AwaitDelay(p *Proc, delay float64, n int)
}

// eventBarrier is the release Barrier had before it was batched: one
// queue event per member, the releaser's first and then the waiters' in
// arrival order. TestBatchedReleaseMatchesPerPartyEvents holds Barrier
// to it, and its AwaitDelay(n) is n consecutive calls, which
// TestStandingMatchesRepeatedAwaitDelay holds a standing member to.
type eventBarrier struct {
	e                     *Engine
	parties, arrived, gen int
	waiters               []*Proc
	stood                 int // releases a standing member would have stood through
}

func (b *eventBarrier) String() string { return "barrier b" } // as NewBarrier(e, "b", …) reports

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

func (b *eventBarrier) Await(p *Proc) { b.await(p, b.e.now, false) }
func (b *eventBarrier) AwaitDelay(p *Proc, delay float64, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.stood++
		}
		b.await(p, b.e.now+delay, true)
	}
}

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
				b.AwaitDelay(p, delay, 1)
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
					b.AwaitDelay(p, 3, 1)
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

// TestStandingMatchesRepeatedAwaitDelay: a member that stands through
// releases — one AwaitDelay(p, d, n) for n consecutive calls — runs the
// very trajectory of the n calls on the event-per-member barrier, with
// the same Scheduled, Callbacks and Inline, and saves exactly one park
// and one dispatch per release it stood through. The cases are those
// where re-arriving in the release's slot could differ from running:
// zero-time arrivals interleaved with standing members, a standing
// member that releases a generation (on its own stack or re-arriving),
// a generation in which every member stands, events queued at a release
// instant on both sides of the entry, Stop in the middle of the chain,
// and the deadlock a standing member is left in. A member that sends
// between the stretches it stands through — a two-layer mate funnels
// its leader a bundle only in the rounds it has pieces — is held to the
// same in the ways its send's wait can go: a yield at the release
// instant, an inline advance, a wait while the rest of the party chain
// is still to be walked, a releaser's wait, Stop while a send waits,
// and a deadlock.
func TestStandingMatchesRepeatedAwaitDelay(t *testing.T) {
	// call is one AwaitDelay: gap is slept before arriving (0 is a
	// Sleep(0), negative arrives straight from the release).
	type call struct {
		gap, delay float64
		n          int
	}
	var between func(p *Proc) // what the next member does between its calls, if it sends
	member := func(e *Engine, b party, note func(string), name string, calls []call, after func(*Proc)) {
		between := between
		e.Spawn(name, func(p *Proc) {
			for i, c := range calls {
				if c.gap >= 0 {
					p.Sleep(c.gap)
				}
				note(fmt.Sprint(name, " arrives for ", c.n))
				b.AwaitDelay(p, c.delay, c.n)
				note(name + " released")
				if between != nil && i < len(calls)-1 {
					between(p)
				}
			}
			if after != nil {
				after(p)
			}
			note(name + " done")
		})
	}
	// waits counts how the senders' waits went: a yield at the current
	// instant, an inline advance, or a park until a later instant.
	var waits map[string]int
	// sender is member sending, as an MPI send does, between each call
	// and the next: it is busy for cost seconds, then puts its count of
	// sends in a channel a receiver taking want values is parked on.
	sender := func(e *Engine, b party, note func(string), name string, calls []call, cost float64, want int) {
		ch := NewChan[int](e, "to "+name)
		sent := 0
		between = func(p *Proc) {
			note(name + " injects")
			kind := "yield"
			if cost > 0 {
				kind = "wait"
			}
			waits[kind]++ // counted first: Stop may end the wait
			parks := e.parks
			if p.WaitUntil(e.now + cost); cost > 0 && e.parks == parks {
				waits["wait"]--
				waits["inline"]++
			}
			sent++
			note(fmt.Sprint(name, " hands over ", sent))
			ch.Put(sent)
		}
		member(e, b, note, name, calls, nil)
		between = nil
		e.Spawn("receiver of "+name, func(p *Proc) {
			for i := 0; i < want; i++ {
				note(fmt.Sprint(name, " delivers ", ch.Get(p)))
			}
		})
	}
	// rounds is n calls of one release each.
	rounds := func(n int, gap, delay float64) []call {
		calls := make([]call, n)
		for i := range calls {
			calls[i] = call{gap, delay, 1}
		}
		return calls
	}
	for _, c := range []struct {
		name    string
		parties int
		run     func(e *Engine, b party, note func(string))
		waits   string // how a sender's waits go, at least once
	}{
		{"zero-time arrivals interleaved with standing members", 4, func(e *Engine, b party, note func(string)) {
			member(e, b, note, "s0", []call{{0, 0.5, 4}}, nil)
			member(e, b, note, "m1", rounds(4, -1, 0.5), nil)
			member(e, b, note, "s2", []call{{0.25, 0.5, 2}, {-1, 0.5, 2}}, nil)
			member(e, b, note, "m3", rounds(4, 0, 0.5), func(p *Proc) { p.Sleep(0) })
		}, ""},
		{"zero delay: re-arrivals and releases at one instant", 4, func(e *Engine, b party, note func(string)) {
			member(e, b, note, "s0", []call{{1, 0, 5}}, nil)
			member(e, b, note, "m1", rounds(5, 0, 0), nil)
			member(e, b, note, "m2", rounds(5, -1, 0), func(p *Proc) {
				e.After(0, func() { note("callback after the last release") })
				p.Yield()
			})
			member(e, b, note, "s3", []call{{0, 0, 3}, {0, 0, 2}}, nil)
		}, ""},
		{"a standing member releases on its own stack and re-arriving", 3, func(e *Engine, b party, note func(string)) {
			// s arrives last, then re-arrives last of the next release.
			member(e, b, note, "a", rounds(4, -1, 1), nil)
			member(e, b, note, "b", []call{{1, 1, 1}, {-1, 1, 1}, {-1, 1, 1}, {-1, 1, 1}}, nil)
			member(e, b, note, "s", []call{{2, 1, 4}}, nil)
		}, ""},
		{"a standing waiter re-arrives last", 3, func(e *Engine, b party, note func(string)) {
			member(e, b, note, "a", rounds(3, -1, 1), nil)
			member(e, b, note, "s", []call{{1, 1, 3}}, nil)
			member(e, b, note, "b", []call{{2, 1, 1}, {-1, 1, 1}, {-1, 1, 1}}, nil)
		}, ""},
		{"every member stands, events at the release instants", 3, func(e *Engine, b party, note func(string)) {
			// Releases at 3, 5 and 7: a timer queued before each entry,
			// and a sleeper's wake and timer queued after it.
			for _, at := range []float64{3, 5, 7} {
				e.After(at, func() { note("timer queued first") })
			}
			e.Spawn("sleeper", func(p *Proc) {
				p.Sleep(4)
				e.After(1, func() { note("timer queued after") })
				p.Sleep(1)
				note("sleeper at the release instant")
			})
			for i := 0; i < 3; i++ {
				member(e, b, note, fmt.Sprint("s", i), []call{{float64(i) / 2, 2, 3}}, func(p *Proc) { p.Sleep(0) })
			}
		}, ""},
		{"Stop mid-chain", 4, func(e *Engine, b party, note func(string)) {
			member(e, b, note, "s0", []call{{0, 1, 4}}, nil)
			member(e, b, note, "m1", rounds(2, -1, 1), func(p *Proc) { e.Stop(); p.Yield() })
			member(e, b, note, "s2", []call{{0.5, 1, 4}}, nil)
			member(e, b, note, "s3", []call{{0.25, 1, 4}}, nil)
		}, ""},
		{"a standing member deadlocks", 3, func(e *Engine, b party, note func(string)) {
			member(e, b, note, "m0", rounds(2, -1, 1), nil)
			member(e, b, note, "s1", []call{{0, 1, 4}}, nil)
			member(e, b, note, "s2", []call{{1, 1, 3}}, nil)
		}, ""},
		{"a sending step yields at the release instant", 3, func(e *Engine, b party, note func(string)) {
			sender(e, b, note, "s0", []call{{0, 0.5, 2}, {-1, 0.5, 1}, {-1, 0.5, 2}}, 0, 2)
			member(e, b, note, "m1", rounds(5, -1, 0.5), nil)
			member(e, b, note, "m2", rounds(5, 0, 0.5), func(p *Proc) { p.Sleep(0) })
		}, "yield"},
		{"a sending step advances inline, last in the chain", 3, func(e *Engine, b party, note func(string)) {
			// s arrives between m0 and m1: it is last in the first
			// release's chain, and its send is shorter than their gaps.
			member(e, b, note, "m0", rounds(5, 0.25, 1), nil)
			sender(e, b, note, "s", []call{{0.27, 1, 1}, {-1, 1, 2}, {-1, 1, 2}}, 0.1, 2)
			member(e, b, note, "m1", rounds(5, 0.3, 1), nil)
		}, "inline"},
		{"a sending step waits with the chain still to walk", 3, func(e *Engine, b party, note func(string)) {
			// s arrives first, so a release's chain holds a waiter after it.
			sender(e, b, note, "s", []call{{0, 1, 2}, {-1, 1, 2}}, 0.5, 1)
			member(e, b, note, "m1", rounds(4, 0.75, 1), nil)
			member(e, b, note, "m2", rounds(4, 0.25, 1), nil)
		}, "wait"},
		{"a standing releaser's step waits and re-arrives last", 3, func(e *Engine, b party, note func(string)) {
			// s's send outlasts the others' gaps: it arrives last and
			// releases, then stands, re-arriving last of the next.
			member(e, b, note, "m0", rounds(5, 0.25, 1), nil)
			member(e, b, note, "m1", rounds(5, 0, 1), nil)
			sender(e, b, note, "s", []call{{1, 1, 1}, {-1, 1, 2}, {-1, 1, 2}}, 0.5, 2)
		}, "wait"},
		{"Stop while a sending step waits", 3, func(e *Engine, b party, note func(string)) {
			// The second release is at 3.5; s's send after it waits to 4.
			e.After(3.75, func() { note("stop"); e.Stop() })
			sender(e, b, note, "s", []call{{0, 1, 2}, {-1, 1, 2}, {-1, 1, 1}}, 0.5, 2)
			member(e, b, note, "m1", rounds(5, 0.75, 1), nil)
			member(e, b, note, "m2", rounds(5, 0.25, 1), nil)
		}, "wait"},
		{"a sending member deadlocks", 3, func(e *Engine, b party, note func(string)) {
			member(e, b, note, "m0", rounds(2, 0.25, 1), nil)
			sender(e, b, note, "s1", []call{{0, 1, 2}, {-1, 1, 2}}, 0.5, 2)
			member(e, b, note, "m2", rounds(4, 0.75, 1), nil)
		}, "wait"},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(perCall bool) (log []string, st Stats, err error, stood int) {
				e := NewEngine()
				note := func(what string) { log = append(log, fmt.Sprintf("%g %s", e.Now(), what)) }
				eb := &eventBarrier{e: e, parties: c.parties}
				var b party = NewBarrier(e, "b", c.parties)
				if perCall {
					b = eb
				}
				waits = map[string]int{}
				c.run(e, b, note)
				err = e.Run()
				return log, e.Stats(), err, eb.stood
			}
			want, wantStats, wantErr, stood := run(true)
			perCallWaits := waits
			got, gotStats, gotErr, _ := run(false)
			if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("standing diverges:\nstanding %v %q\nper call %v %q", gotErr, got, wantErr, want)
			}
			saved := wantStats
			saved.Parks -= uint64(stood)
			saved.Dispatches -= uint64(stood)
			if stood == 0 || gotStats != saved {
				t.Fatalf("census %+v, want %+v (per call %+v less %d releases stood through)", gotStats, saved, wantStats, stood)
			}
			if !reflect.DeepEqual(waits, perCallWaits) {
				t.Fatalf("the sends waited %v, per call %v", waits, perCallWaits)
			}
			if c.waits != "" && waits[c.waits] == 0 {
				t.Fatalf("no send's wait went as %q: %v", c.waits, waits)
			}
		})
	}
}
