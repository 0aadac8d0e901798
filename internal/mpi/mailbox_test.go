package mpi

import (
	"strings"
	"testing"

	"repro/internal/simtime"
)

// TestMailboxNameIsRenderedAtReportTime: a mailbox is created for every
// (src, dst, context, tag) stream a run touches and its name is read
// only by a deadlock report. Creating one formats nothing; a receive
// nobody answers is still reported with its source, destination,
// context and tag.
func TestMailboxNameIsRenderedAtReportTime(t *testing.T) {
	e := simtime.NewEngine()
	w, err := NewWorld(e, testMachine(t, 2, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	src := 0
	// The mailbox, its channel and its flush closure; the map's growth
	// amortises to less than one more.
	if n := testing.AllocsPerRun(1000, func() {
		w.box(msgKey{src: src, dst: 1, ctx: 1, tag: 7})
		src++
	}); n > 3 {
		t.Errorf("creating a mailbox allocates %v objects, want 3", n)
	}

	w.Start(func(c *Comm) {
		if c.Rank() == 3 {
			c.RecvVal(1, 7) // rank 1 never sends
		}
	})
	dl, ok := e.Run().(*simtime.DeadlockError)
	if !ok {
		t.Fatal("unanswered receive did not report deadlock")
	}
	if got, want := strings.Join(dl.Blocked, "\n"), "rank3 (waiting: chan mbox 1->3 ctx1 tag7)"; got != want {
		t.Errorf("deadlock report %q, want %q", got, want)
	}
}
