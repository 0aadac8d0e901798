package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Spawn("a", func(p *Proc) {
		p.Sleep(2.5)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2.5 {
		t.Fatalf("woke at %g, want 2.5", at)
	}
	if e.Now() != 2.5 {
		t.Fatalf("engine at %g, want 2.5", e.Now())
	}
}

func TestEventOrderIsTimeThenFIFO(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(2, func() { order = append(order, "t2-first") })
	e.After(1, func() { order = append(order, "t1") })
	e.After(2, func() { order = append(order, "t2-second") })
	e.After(0, func() { order = append(order, "t0") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"t0", "t1", "t2-first", "t2-second"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		e.Spawn("child", func(c *Proc) {
			if c.Now() != 1 {
				t.Errorf("child started at %g, want 1", c.Now())
			}
			childRan = true
		})
		p.Sleep(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	never := NewChan[int](e, "never")
	e.Spawn("stuck", func(p *Proc) { never.Get(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked %v, want 1 proc", de.Blocked)
	}
}

func TestChanBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e, "c")
	var got int
	var at float64
	e.Spawn("recv", func(p *Proc) {
		got = c.Get(p)
		at = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(3)
		c.Put(42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || at != 3 {
		t.Fatalf("got %d at t=%g, want 42 at t=3", got, at)
	}
}

func TestChanFIFOAcrossManyItems(t *testing.T) {
	e := NewEngine()
	c := NewChan[int](e, "c")
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, c.Get(p))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(0.1)
			c.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d]=%d, want %d", i, v, i)
		}
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	e := NewEngine()
	const parties = 4
	b := NewBarrier(e, "b", parties)
	times := make([][]float64, parties)
	for i := 0; i < parties; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for phase := 0; phase < 3; phase++ {
				p.Sleep(float64(i+1) * 0.5 * float64(phase+1))
				b.Await(p)
				times[i] = append(times[i], p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for phase := 0; phase < 3; phase++ {
		for i := 1; i < parties; i++ {
			if times[i][phase] != times[0][phase] {
				t.Fatalf("phase %d: proc %d released at %g, proc 0 at %g",
					phase, i, times[i][phase], times[0][phase])
			}
		}
	}
}

func TestDeterminismUnderRandomSleeps(t *testing.T) {
	run := func(seed int64) string {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []string
		c := NewChan[string](e, "c")
		for i := 0; i < 8; i++ {
			i := i
			d := rng.Float64()
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				c.Put(fmt.Sprintf("%d@%.3f", i, p.Now()))
			})
		}
		e.Spawn("collector", func(p *Proc) {
			for i := 0; i < 8; i++ {
				log = append(log, c.Get(p))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("non-deterministic runs:\n%s\n%s", a, b)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(1)
			ticks++
			if ticks == 5 {
				e.Stop()
				return
			}
		}
	})
	e.Spawn("forever", func(p *Proc) {
		NewChan[int](e, "never").Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if ticks != 5 {
		t.Fatalf("ticks=%d, want 5", ticks)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
			// Unwind cleanly so Run terminates.
		}()
		p.Sleep(-1)
	})
	_ = e.Run()
}

func TestAfterZeroDelayRunsAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.After(0, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("ran at %g, want 0", at)
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine()
	const n = 2000
	b := NewBarrier(e, "b", n)
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(float64(i%13) * 0.001)
			b.Await(p)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done=%d, want %d", done, n)
	}
}

func TestAfterCallbackCanSpawn(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(1, func() {
		e.Spawn("late", func(p *Proc) {
			p.Sleep(0.5)
			ran = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 1.5 {
		t.Fatalf("ran=%v now=%g", ran, e.Now())
	}
}
