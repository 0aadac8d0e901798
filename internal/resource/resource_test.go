package resource

import (
	"math"
	"testing"

	"repro/internal/simtime"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSingleTransferTime(t *testing.T) {
	e := simtime.NewEngine()
	l := NewLink("l", 100, 0.5) // 100 B/s, 0.5 s latency
	var done float64
	e.Spawn("p", func(p *simtime.Proc) {
		done = l.Transfer(p, 200)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(done, 2.5) { // 200/100 + 0.5
		t.Fatalf("done at %g, want 2.5", done)
	}
}

func TestTwoTransfersSerializeOnSharedLink(t *testing.T) {
	e := simtime.NewEngine()
	l := NewLink("l", 100, 0)
	var d1, d2 float64
	e.Spawn("a", func(p *simtime.Proc) { d1 = l.Transfer(p, 100) })
	e.Spawn("b", func(p *simtime.Proc) { d2 = l.Transfer(p, 100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first, second := d1, d2
	if first > second {
		first, second = second, first
	}
	if !almostEq(first, 1) || !almostEq(second, 2) {
		t.Fatalf("completions %g,%g; want 1 and 2 (serialized)", d1, d2)
	}
}

func TestLinkThroughputConserved(t *testing.T) {
	// N concurrent senders through one link: last completion must be
	// at least totalBytes/bandwidth regardless of arrival pattern.
	e := simtime.NewEngine()
	l := NewLink("l", 1000, 0)
	const n = 10
	var last float64
	for i := 0; i < n; i++ {
		e.Spawn("s", func(p *simtime.Proc) {
			d := l.Transfer(p, 500)
			if d > last {
				last = d
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if last < float64(n*500)/1000-1e-9 {
		t.Fatalf("last completion %g beats link capacity %g", last, float64(n*500)/1000)
	}
}

func TestPathBottleneckPacing(t *testing.T) {
	e := simtime.NewEngine()
	fast := NewLink("fast", 1000, 0.1)
	slow := NewLink("slow", 100, 0.2)
	pa := NewPath(fast, slow)
	var done float64
	e.Spawn("p", func(p *simtime.Proc) { done = pa.Transfer(p, 100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 100 bytes at bottleneck 100 B/s = 1 s, plus 0.3 s latency.
	if !almostEq(done, 1.3) {
		t.Fatalf("done %g, want 1.3", done)
	}
}

func TestPathChargesEveryHop(t *testing.T) {
	e := simtime.NewEngine()
	a := NewLink("a", 1000, 0)
	b := NewLink("b", 100, 0)
	pa := NewPath(a, b)
	e.Spawn("p", func(p *simtime.Proc) { pa.Transfer(p, 1000) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Bytes != 1000 || b.Stats().Bytes != 1000 {
		t.Fatalf("hop bytes %d,%d; want 1000,1000", a.Stats().Bytes, b.Stats().Bytes)
	}
	if !almostEq(a.Stats().BusySeconds, 1) || !almostEq(b.Stats().BusySeconds, 10) {
		t.Fatalf("busy %g,%g; want 1,10", a.Stats().BusySeconds, b.Stats().BusySeconds)
	}
}

func TestPathSkipsNilLinks(t *testing.T) {
	e := simtime.NewEngine()
	a := NewLink("a", 100, 0.5)
	pa := NewPath(nil, a, nil)
	var done float64
	e.Spawn("p", func(p *simtime.Proc) { done = pa.Transfer(p, 100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(done, 1.5) {
		t.Fatalf("done %g, want 1.5", done)
	}
}

func TestEmptyPathIsInstant(t *testing.T) {
	e := simtime.NewEngine()
	pa := NewPath()
	var done float64 = -1
	e.Spawn("p", func(p *simtime.Proc) {
		p.Sleep(2)
		done = pa.Transfer(p, 1e9)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(done, 2) {
		t.Fatalf("done %g, want 2", done)
	}
}

func TestSharedHopSerializesTwoPaths(t *testing.T) {
	// Two disjoint endpoints sharing one bisection link: combined
	// completion bounded by bisection capacity.
	e := simtime.NewEngine()
	bisect := NewLink("bisect", 100, 0)
	n1 := NewLink("nic1", 1000, 0)
	n2 := NewLink("nic2", 1000, 0)
	p1 := NewPath(n1, bisect)
	p2 := NewPath(n2, bisect)
	var d1, d2 float64
	e.Spawn("a", func(p *simtime.Proc) { d1 = p1.Transfer(p, 100) })
	e.Spawn("b", func(p *simtime.Proc) { d2 = p2.Transfer(p, 100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	last := math.Max(d1, d2)
	if last < 2-1e-9 {
		t.Fatalf("last completion %g, want >= 2 (bisection carries 200 B at 100 B/s)", last)
	}
}

func TestZeroByteTransferPaysOnlyLatency(t *testing.T) {
	e := simtime.NewEngine()
	l := NewLink("l", 100, 0.25)
	var done float64
	e.Spawn("p", func(p *simtime.Proc) { done = l.Transfer(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(done, 0.25) {
		t.Fatalf("done %g, want 0.25", done)
	}
}

func TestInvalidLinkPanics(t *testing.T) {
	for _, c := range []struct{ bw, lat float64 }{{0, 0}, {-1, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%g,%g) did not panic", c.bw, c.lat)
				}
			}()
			NewLink("bad", c.bw, c.lat)
		}()
	}
}

func TestReserveDoesNotBlock(t *testing.T) {
	// Reserve books capacity without advancing the caller's clock;
	// the caller can aggregate several reservations then wait once.
	e := simtime.NewEngine()
	l := NewLink("l", 100, 0)
	var before, after, done float64
	e.Spawn("p", func(p *simtime.Proc) {
		before = p.Now()
		d1 := l.Reserve(p.Now(), 100) // 1s
		d2 := l.Reserve(p.Now(), 100) // queued: 2s
		after = p.Now()
		if d2 <= d1 {
			t.Errorf("reservations did not queue: %g then %g", d1, d2)
		}
		p.WaitUntil(d2)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("Reserve advanced the clock from %g to %g", before, after)
	}
	if !almostEq(done, 2) {
		t.Fatalf("done %g, want 2", done)
	}
}
