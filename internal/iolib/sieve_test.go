package iolib

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func rig(t *testing.T, nodes, cores int) (*simtime.Engine, *cluster.Machine, *pfs.FS) {
	t.Helper()
	e := simtime.NewEngine()
	m, err := cluster.New(cluster.Config{
		Nodes: nodes, CoresPerNode: cores,
		MemPerNode: 256 * cluster.MiB,
		MemBusBW:   1e10, MemBusLat: 1e-7,
		NICBW: 1e9, NICLat: 1e-6,
		BisectionBW: 1e10, BisectionLat: 1e-6,
		IONetBW: 2e9, IONetLat: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pfs.New(pfs.Config{OSTs: 4, StripeUnit: 1 << 20, OSTBW: 5e8, OSTLatency: 5e-4}, m)
	if err != nil {
		t.Fatal(err)
	}
	return e, m, fs
}

func TestWriteIndependentContiguous(t *testing.T) {
	e, _, fs := rig(t, 1, 1)
	f := fs.Open("x")
	e.Spawn("p", func(p *simtime.Proc) {
		view := datatype.List{{Off: 100, Len: 1000}}
		data := fillViewBuffer(view, 4)
		WriteIndependent(f, p, 0, view, data, DefaultSieve())
		out := buffer.NewReal(1000)
		f.ReadAt(p, 0, 100, out)
		if i := out.Verify(4, 100); i != -1 {
			t.Errorf("mismatch at %d", i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteIndependentRMWPreservesNeighbours(t *testing.T) {
	e, _, fs := rig(t, 1, 1)
	f := fs.Open("x")
	e.Spawn("p", func(p *simtime.Proc) {
		// Pre-existing data across [0, 300).
		base := buffer.NewReal(300)
		base.Fill(1, 0)
		f.WriteAt(p, 0, 0, base)
		// Holey write sieved as one RMW batch.
		view := datatype.List{{Off: 50, Len: 20}, {Off: 100, Len: 20}, {Off: 200, Len: 20}}
		data := fillViewBuffer(view, 2)
		WriteIndependent(f, p, 0, view, data, SieveOptions{BufSize: 1 << 20, WriteRMW: true})
		out := buffer.NewReal(300)
		f.ReadAt(p, 0, 0, out)
		for _, check := range []struct {
			off, n int64
			tag    uint64
		}{
			{0, 50, 1}, {50, 20, 2}, {70, 30, 1}, {100, 20, 2},
			{120, 80, 1}, {200, 20, 2}, {220, 80, 1},
		} {
			if i := out.Slice(check.off, check.n).Verify(check.tag, check.off); i != -1 {
				t.Errorf("range [%d,+%d) tag %d mismatch at %d", check.off, check.n, check.tag, i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadIndependentGathersHoleyView(t *testing.T) {
	e, _, fs := rig(t, 1, 1)
	f := fs.Open("x")
	e.Spawn("p", func(p *simtime.Proc) {
		base := buffer.NewReal(1000)
		base.Fill(7, 0)
		f.WriteAt(p, 0, 0, base)
		view := datatype.List{{Off: 10, Len: 5}, {Off: 500, Len: 100}, {Off: 900, Len: 50}}
		dst := buffer.NewReal(view.TotalBytes())
		ReadIndependent(f, p, 0, view, dst, DefaultSieve())
		var pos int64
		for _, s := range view {
			if i := dst.Slice(pos, s.Len).Verify(7, s.Off); i != -1 {
				t.Errorf("segment %v mismatch at %d", s, i)
			}
			pos += s.Len
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSievingBeatsPerSegmentRequests(t *testing.T) {
	// 512 tiny adjacent-ish segments: sieved read should be much
	// faster than per-segment reads under per-request overhead.
	view := make(datatype.List, 512)
	for i := range view {
		view[i] = datatype.Segment{Off: int64(i) * 128, Len: 64}
	}
	runOne := func(opts SieveOptions) float64 {
		e, _, fs := rig(t, 1, 1)
		f := fs.Open("x")
		var done float64
		e.Spawn("p", func(p *simtime.Proc) {
			dst := buffer.NewPhantom(view.TotalBytes())
			ReadIndependent(f, p, 0, view, dst, opts)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	sieved := runOne(DefaultSieve())
	naive := runOne(SieveOptions{})
	if sieved*10 > naive {
		t.Fatalf("sieved %g s vs naive %g s: sieving not >=10x better", sieved, naive)
	}
}

func TestRunHarnessWithNaiveStrategy(t *testing.T) {
	e, m, fs := rig(t, 2, 2)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("shared")
	var res trace.Result
	// left[call][rank] is the instant the rank returns from its write
	// (call 0) and read (call 1) Run: the closing barrier is the last
	// thing any rank does there, so all four leave each call together.
	var left [2][4]float64
	const segLen = 1 << 10
	w.Start(func(c *mpi.Comm) {
		// Interleaved pattern: rank r owns blocks r, r+4, r+8, ...
		view := datatype.Normalize(datatype.Vector{Count: 8, BlockLen: segLen, Stride: segLen * 4}.Segments(nil, int64(c.Rank())*segLen))
		data := fillViewBuffer(view, uint64(c.Rank()))
		// Sieving is disabled for the concurrent write: read-modify-write
		// extents from different ranks interleave and would clobber each
		// other without the file locking real ROMIO employs — the exact
		// hazard collective I/O sidesteps by assigning disjoint domains.
		r := Run(Naive{Opts: SieveOptions{}}, "write", f, c, view, data, &trace.Metrics{})
		left[0][c.Rank()] = c.Now()
		if c.Rank() == 0 {
			res = r
		}

		// Read everything back and verify.
		dst := buffer.NewReal(view.TotalBytes())
		Run(Naive{Opts: DefaultSieve()}, "read", f, c, view, dst, nil)
		left[1][c.Rank()] = c.Now()
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
	for call, at := range left {
		for r, tr := range at {
			if tr != at[0] {
				t.Errorf("call %d: rank %d left at %g, rank 0 at %g", call, r, tr, at[0])
			}
		}
	}
	if e.Now() != left[1][0] {
		t.Errorf("engine ends at %g, the read's ranks left at %g", e.Now(), left[1][0])
	}
	if res.Bytes != 4*8*segLen {
		t.Fatalf("result bytes %d, want %d", res.Bytes, 4*8*segLen)
	}
	if res.Elapsed <= 0 || res.BandwidthMBps() <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Strategy != "independent" || res.Op != "write" {
		t.Fatalf("result labels %q %q", res.Strategy, res.Op)
	}
}

func TestRunBadOpPanics(t *testing.T) {
	e, m, fs := rig(t, 1, 1)
	w, _ := mpi.NewWorld(e, m, 1)
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		Run(Naive{}, "append", f, c, nil, buffer.NewPhantom(0), nil)
	})
	_ = e.Run()
}
