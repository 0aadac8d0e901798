package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/simtime"
)

// TestSharedDerivesOnceForEveryMember: f runs once for the whole
// communicator, every member gets the identical value, Allgather's result
// and each Split color's group are one slice for all of their members,
// and the world's slot table is empty once everyone has taken its value.
func TestSharedDerivesOnceForEveryMember(t *testing.T) {
	const p = 6
	calls := 0
	got := make([]*int, p)
	gathered := make([][]any, p)
	subs := make([]*Comm, p)
	w := run(t, 2, 3, p, func(c *Comm) {
		if c.Rank()%2 == 1 {
			c.Proc().Sleep(1e-3) // members reach the slot at different instants
		}
		got[c.Rank()] = Shared(c, func() *int {
			calls++
			r := c.Rank()
			return &r
		})
		gathered[c.Rank()] = c.Allgather(c.Rank(), 8)
		subs[c.Rank()] = c.Split(c.Rank()%2, -c.Rank())
	})
	if calls != 1 {
		t.Fatalf("f ran %d times for %d members, want once", calls, p)
	}
	for r := 0; r < p; r++ {
		if got[r] != got[0] {
			t.Errorf("rank %d got its own value %v, want rank 0's %v", r, got[r], got[0])
		}
		if &gathered[r][0] != &gathered[0][0] {
			t.Errorf("rank %d holds its own allgather result", r)
		}
		if mate := subs[r%2]; &subs[r].group[0] != &mate.group[0] {
			t.Errorf("rank %d holds its own copy of its split group", r)
		}
		if want := (p - 1 - r) / 2; subs[r].Rank() != want {
			t.Errorf("rank %d has split rank %d, want %d", r, subs[r].Rank(), want)
		}
	}
	if n := len(w.shared); n != 0 {
		t.Fatalf("%d shared slots left after every member took its value", n)
	}
}

// TestSharedMismatchPanicsNamingBothKinds: a member that reaches the slot
// with a different call than the others — here an Allgather where they
// call Shared — breaks the SPMD contract, and the panic names the comm,
// the call's sequence number and both kinds.
func TestSharedMismatchPanicsNamingBothKinds(t *testing.T) {
	e := simtime.NewEngine()
	w, err := NewWorld(e, testMachine(t, 1, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(c *Comm) {
		if c.Rank() == 1 {
			c.Allgather(c.Rank(), 8)
			return
		}
		Shared(c, func() int { return c.Rank() })
	})
	defer func() {
		const want = "mpi: comm1 shared call #1: rank 1 calls mpi.allgathered, the slot holds int"
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("panic %q, want %q", got, want)
		}
	}()
	e.Run()
	t.Fatal("mismatched shared call did not panic")
}

// TestSharedCarriesInterfaceValues: an interface-typed slot hands every
// member f's value, a nil interface as well as a non-nil one.
func TestSharedCarriesInterfaceValues(t *testing.T) {
	const p = 4
	boom := errors.New("boom")
	var nils, errs [p]error
	run(t, 1, p, p, func(c *Comm) {
		nils[c.Rank()] = Shared(c, func() error { return nil })
		errs[c.Rank()] = Shared(c, func() error { return boom })
	})
	for r := range p {
		if nils[r] != nil || errs[r] != boom {
			t.Errorf("rank %d got (%v, %v), want (<nil>, boom)", r, nils[r], errs[r])
		}
	}
}
