package simtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// TestQueuePopEmptyPanics pins the contract documented on pop: the run
// loop guards emptiness, so a bare pop on an empty queue is a scheduler
// bug and must fail loudly rather than return a zero event.
func TestQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop on empty queue did not panic")
		}
	}()
	var q eventQueue
	q.pop(0)
}

// byAtSeq sorts events into the order the queue must pop them.
func byAtSeq(evs []event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
}

// drainAgainstSort pops q empty, advancing the clock from now to each
// popped event, and checks the result against pushed sorted by (at,
// seq).
func drainAgainstSort(t *testing.T, q *eventQueue, now float64, got, pushed []event) {
	t.Helper()
	for q.len() > 0 {
		ev := q.pop(now)
		now = ev.at
		got = append(got, ev)
	}
	byAtSeq(pushed)
	if len(got) != len(pushed) {
		t.Fatalf("drained %d events, pushed %d", len(got), len(pushed))
	}
	for i := range pushed {
		if got[i].at != pushed[i].at || got[i].seq != pushed[i].seq {
			t.Fatalf("pop %d: got (%g,%d), want (%g,%d)", i, got[i].at, got[i].seq, pushed[i].at, pushed[i].seq)
		}
	}
	if len(q.heap) != 0 || len(q.fifo) != 0 || q.head != 0 {
		t.Fatalf("drained queue holds heap %d, fifo %d from %d", len(q.heap), len(q.fifo), q.head)
	}
}

// TestQueueEqualTimestampFIFO drains a queue loaded with many events at
// few distinct timestamps, the earliest of them the clock's, so a share
// goes to the same-instant FIFO, and checks full (at, seq) order:
// within one instant, events must come out in schedule order. This is
// the tie-break the flattened siftDown must preserve — a heap that
// compares only on time would be stable by accident at small sizes and
// wrong at large ones.
func TestQueueEqualTimestampFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var all []event
	const n = 5000
	for i := 0; i < n; i++ {
		// Only 8 distinct timestamps: dense ties.
		ev := event{at: float64(rng.Intn(8)), seq: uint64(i + 1)}
		q.push(ev, 0)
		all = append(all, ev)
	}
	if len(q.fifo) == 0 || len(q.heap) == 0 {
		t.Fatalf("draw left heap %d, fifo %d: both must be exercised", len(q.heap), len(q.fifo))
	}
	drainAgainstSort(t, &q, 0, nil, all)
}

// TestQueueInterleavedPushPop mixes pushes and pops the way a live
// simulation does (wakes scheduled while draining, a share of them at
// the current instant) and checks the result against a sort of the
// same records.
func TestQueueInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q eventQueue
	var seq uint64
	var all, got []event
	now, atNow := 0.0, 0
	for i := 0; i < 4000; i++ {
		if q.len() == 0 || rng.Intn(3) != 0 {
			seq++
			ev := event{at: now + float64(rng.Intn(4)), seq: seq}
			if ev.at == now {
				atNow++
			}
			q.push(ev, now)
			all = append(all, ev)
		} else {
			ev := q.pop(now)
			now = ev.at
			got = append(got, ev)
		}
	}
	if atNow < 100 {
		t.Fatalf("only %d pushes at the current instant", atNow)
	}
	drainAgainstSort(t, &q, now, got, all)
}

// TestAdvanceInlineYieldsToEqualTimeEvent checks the strict comparison
// in advanceInline: a process sleeping to exactly the time of an
// already-queued event must park so the queued event (older sequence
// number) runs first. An inline advance here would reorder
// simultaneous events and break determinism.
func TestAdvanceInlineYieldsToEqualTimeEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(1, func() { order = append(order, "timer") })
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1) // wakes at t=1, same instant as the timer
		order = append(order, "sleeper")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"timer", "sleeper"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestAdvanceInlineSkipsPark checks the fast path itself: a lone
// process chaining sleeps with an empty queue advances the clock
// without ever re-entering the event queue, and lands at the same
// virtual time the slow path would produce.
func TestAdvanceInlineSkipsPark(t *testing.T) {
	e := NewEngine()
	e.Spawn("lone", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(0.5)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 500 {
		t.Fatalf("clock at %g, want 500", e.Now())
	}
}

// TestAdvanceInlineRespectsStop pins the Stop interaction: a process
// looping on Sleep must still go through the queue once Stop is called
// so the drained run loop regains control, instead of spinning the
// clock forward forever on the inline path.
func TestAdvanceInlineRespectsStop(t *testing.T) {
	e := NewEngine()
	var wakes int
	e.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(1)
			wakes++
			if wakes == 3 {
				e.Stop()
			}
			if wakes > 3 {
				t.Error("looper ran past Stop")
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 3 {
		t.Fatalf("looper woke %d times, want 3", wakes)
	}
}

// BenchmarkEventQueue measures steady-state pop+push with a warm
// backing array, at 64, 1,024 (sim-wide's depth: most of its pushes
// see 256–1,023 resident events) and 8,192 resident events. The queue
// is the hottest structure in a run; it must not allocate once the
// array has grown to the working-set size.
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprint("resident=", n), func(b *testing.B) {
			var q eventQueue
			var seq uint64
			for i := 0; i < n; i++ {
				seq++
				q.push(event{at: float64(i + 1), seq: seq}, 0)
			}
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop(now)
				now = ev.at
				seq++
				ev.at += float64(n)
				ev.seq = seq
				q.push(ev, now)
			}
			if testing.AllocsPerRun(100, func() {
				ev := q.pop(now)
				now = ev.at
				q.push(ev, now)
			}) != 0 {
				b.Fatal("event queue allocated in steady state")
			}
		})
	}
}

// BenchmarkSleepChain measures the whole-engine cost of a process
// advancing time with no competing events — the inline fast path.
func BenchmarkSleepChain(b *testing.B) {
	e := NewEngine()
	done := make(chan struct{})
	e.Spawn("lone", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
		close(done)
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	<-done
}

// steadyState runs a benchmark whose processes each execute step b.N
// times after one untimed warm-up step (which grows the event heap and
// the waiter lists to their working size), and fails it if the timed
// part allocates: a park, a dispatch and a wake are all free of garbage.
func steadyState(b *testing.B, e *Engine, procs int, step func(p *Proc, id int)) {
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	var parks uint64
	for id := 0; id < procs; id++ {
		e.Spawn(fmt.Sprint("p", id), func(p *Proc) {
			step(p, id)
			if id == 0 {
				runtime.ReadMemStats(&m0)
				parks = e.Stats().Parks
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				step(p, id)
			}
		})
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	// Averaged like testing.AllocsPerRun, and only over a real run: one
	// stray runtime allocation is a whole alloc/op at b.N = 1. Mallocs
	// only ever grows, so one delta of it cannot wrap (-race included).
	if per := (m1.Mallocs - m0.Mallocs) / uint64(b.N); per != 0 && b.N >= 100 {
		b.Fatalf("%d allocs/op in steady state", per)
	}
	b.ReportMetric(float64(e.Stats().Parks-parks)/float64(b.N), "parks/op")
}

// BenchmarkBarrierHandoff measures the hand-off itself: 120 processes
// meet at a barrier and every one of them parks and is dispatched again
// (AwaitDelay parks the releaser too), which is what a lock-step round
// costs the host per rank. One op is one barrier generation — 120
// parks — so ns/op ÷ 120 is the price of a park.
func BenchmarkBarrierHandoff(b *testing.B) {
	const procs = 120
	e := NewEngine()
	bar := NewBarrier(e, "b", procs)
	steadyState(b, e, procs, func(p *Proc, _ int) { bar.AwaitDelay(p, 1e-6, 1, nil) })
}

// BenchmarkChanPingPong measures a strictly alternating pair: each Get
// parks until the peer's Put, so one op (a round trip) is two parks and
// two dispatches with nothing else in the queue.
func BenchmarkChanPingPong(b *testing.B) {
	e := NewEngine()
	ping, pong := NewChan[int](e, "ping"), NewChan[int](e, "pong")
	steadyState(b, e, 2, func(p *Proc, id int) {
		if id == 0 {
			ping.Put(1)
			pong.Get(p)
		} else {
			pong.Put(ping.Get(p))
		}
	})
}
