package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// TestNodeCombineWriteReadRoundTrip pushes real bytes through the
// two-layer exchange in both directions and verifies them.
func TestNodeCombineWriteReadRoundTrip(t *testing.T) {
	m := testMachine(t, 3, 4, 64*cluster.MiB, 0)
	opts := testOpts(128<<10, 512<<10)
	opts.TwoLayer = true
	res := runMCCIO(t, MCCIO{Opts: opts}, m, 12, 16, 4<<10)
	if res.Bytes != 12*16*4<<10 {
		t.Fatalf("bytes %d", res.Bytes)
	}
	if res.Rounds == 0 || res.Aggregators == 0 {
		t.Fatalf("bad metrics %+v", res.Metrics)
	}
}

func TestNodeCombineUnderVariance(t *testing.T) {
	m := testMachine(t, 4, 4, 4*cluster.MiB, 0.6)
	opts := Options{Msgind: 1 << 20, Msggroup: 16 << 20, Nah: 2, Memmin: 256 << 10, TwoLayer: true}
	res := runMCCIO(t, MCCIO{Opts: opts}, m, 16, 24, 8<<10)
	if res.Bytes != 16*24*8<<10 {
		t.Fatalf("bytes %d", res.Bytes)
	}
}

// TestNodeCombineReducesFabricMessages checks the mechanism's purpose:
// fewer NIC crossings than the flat exchange on the same workload.
func TestNodeCombineReducesFabricMessages(t *testing.T) {
	run := func(combine bool) int64 {
		m := testMachine(t, 4, 4, 64*cluster.MiB, 0)
		e := simtime.NewEngine()
		w, err := mpi.NewWorld(e, m, 16)
		if err != nil {
			t.Fatal(err)
		}
		fs := testFS(t, m)
		f := fs.Open("x")
		opts := testOpts(256<<10, 0) // one group: combining is the only difference
		opts.TwoLayer = combine
		w.Start(func(c *mpi.Comm) {
			view := interleavedView(c.Rank(), 16, 16, 4<<10)
			data := fillViewBuffer(view, uint64(c.Rank()))
			iolib.Run(MCCIO{Opts: opts}, "write", f, c, view, data, &trace.Metrics{})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		// Every inter-node message crosses the bisection link once.
		return m.Bisection().Stats().Transfers
	}
	flat := run(false)
	combined := run(true)
	if combined >= flat {
		t.Fatalf("combining did not reduce fabric messages: %d vs %d", combined, flat)
	}
}

// TestNodeCombineMatchesFlatResults: both exchanges must produce
// identical file contents; the flat read of a combined write verifies
// cross-compatibility.
func TestNodeCombineMatchesFlatResults(t *testing.T) {
	m := testMachine(t, 2, 3, 64*cluster.MiB, 0)
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, m, 6)
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS(t, m)
	f := fs.Open("x")
	combineOpts := testOpts(128<<10, 0)
	combineOpts.TwoLayer = true
	flatOpts := testOpts(128<<10, 0)
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), 6, 8, 2<<10)
		data := fillViewBuffer(view, uint64(c.Rank()))
		// Write with combining, read flat.
		iolib.Run(MCCIO{Opts: combineOpts}, "write", f, c, view, data, nil)
		dst := fillViewBuffer(view, 999) // junk to be overwritten
		iolib.Run(MCCIO{Opts: flatOpts}, "read", f, c, view, dst, nil)
		var pos int64
		for _, s := range view {
			if i := dst.Slice(pos, s.Len).Verify(uint64(c.Rank()), s.Off); i != -1 {
				t.Errorf("rank %d segment %v mismatch at %d", c.Rank(), s, i)
			}
			pos += s.Len
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeCombineWithTwoPhasePlan exercises the combined engine under
// the baseline planner too (offset windows, RMW path allowed).
func TestNodeCombineWithTwoPhasePlan(t *testing.T) {
	m := testMachine(t, 2, 3, 64*cluster.MiB, 0)
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, m, 6)
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS(t, m)
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), 6, 8, 2<<10)
		data := fillViewBuffer(view, uint64(c.Rank()))
		nodeOf := make([]int, c.Size())
		for r := range nodeOf {
			nodeOf[r] = c.NodeOf(r)
		}
		build := func() *collio.Plan {
			_, s := collio.TwoPhase{CBBuffer: 64 << 10}.Plan("", c, view, nil)
			plan := s.(*collio.Plan)
			if plan.LeaderOf = collio.LowestRankLeaders(nodeOf); plan.LeaderOf == nil {
				t.Error("lowest-rank leaders on a 3-rank-per-node machine gave no leader map")
			}
			return plan
		}
		var mtr trace.Metrics
		build().Run("write", f, c, view, data, &mtr)
		c.Barrier()
		dst := fillViewBuffer(view, 999)
		build().Run("read", f, c, view, dst, &mtr)
		var pos int64
		for _, s := range view {
			if i := dst.Slice(pos, s.Len).Verify(uint64(c.Rank()), s.Off); i != -1 {
				t.Errorf("rank %d segment %v mismatch at %d", c.Rank(), s, i)
			}
			pos += s.Len
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedWritePreservesPreexistingHoles: MCCIO's exact writes must
// not disturb file bytes between its requests, even when its window
// coverage has holes over pre-existing data.
func TestGroupedWritePreservesPreexistingHoles(t *testing.T) {
	m := testMachine(t, 2, 2, 64*cluster.MiB, 0)
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS(t, m)
	f := fs.Open("x")
	const fileSize = 64 << 10
	w.Start(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			base := buffer.NewReal(fileSize)
			base.Fill(99, 0)
			f.WriteAt(c.Proc(), 0, 0, base)
		}
		c.Barrier()
		// 4 ranks write every second 512B block of an 8-wide stride:
		// the other half keeps the pre-image. Grouping (Msggroup=1)
		// forces multiple concurrent groups over interleaved regions.
		view := interleavedView(c.Rank(), 8, 8, 512)
		data := fillViewBuffer(view, uint64(c.Rank()))
		opts := Options{Msgind: 4 << 10, Msggroup: 1, Nah: 2, Memmin: 64 << 10}
		iolib.Run(MCCIO{Opts: opts}, "write", f, c, view, data, &trace.Metrics{})
		c.Barrier()
		if c.Rank() == 0 {
			out := buffer.NewReal(fileSize)
			f.ReadAt(c.Proc(), 0, 0, out)
			for blk := int64(0); blk < fileSize/512; blk++ {
				slot := blk % 8
				got := out.Slice(blk*512, 512)
				if slot < 4 && blk < 64 {
					if i := got.Verify(uint64(slot), blk*512); i != -1 {
						t.Errorf("block %d (rank %d) mismatch at %d", blk, slot, i)
					}
				} else {
					if i := got.Verify(99, blk*512); i != -1 {
						t.Errorf("block %d pre-image clobbered at %d", blk, i)
					}
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
