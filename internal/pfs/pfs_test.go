package pfs

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stats"
)

func testRig(t testing.TB) (*cluster.Machine, *FS) {
	t.Helper()
	m, err := cluster.New(cluster.Config{
		Nodes: 2, CoresPerNode: 2,
		MemPerNode: 64 * cluster.MiB,
		MemBusBW:   1e10, NICBW: 1e9, BisectionBW: 1e10, IONetBW: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(Config{OSTs: 4, StripeUnit: 1 << 20, OSTBW: 1e8, OSTLatency: 1e-3}, m)
	if err != nil {
		t.Fatal(err)
	}
	return m, fs
}

// observedRig is testRig's file system with a metrics registry and an
// event tracer attached, and with storage jitter drawn from seed.
func observedRig(t testing.TB, jitter float64, seed uint64) (*FS, *metrics.Registry, *obs.Tracer) {
	t.Helper()
	m, _ := testRig(t) // a fresh machine; its own FS goes unused
	reg, tr := metrics.New(), obs.NewTracer()
	m.SetMetrics(reg)
	m.SetTracer(tr)
	fs, err := New(Config{OSTs: 4, StripeUnit: 1 << 20, OSTBW: 1e8, OSTLatency: 1e-3,
		JitterMean: jitter, Seed: seed}, m)
	if err != nil {
		t.Fatal(err)
	}
	return fs, reg, tr
}

func runSim(t *testing.T, body func(p *simtime.Proc)) {
	t.Helper()
	e := simtime.NewEngine()
	e.Spawn("t", body)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, fs := testRig(t)
	f := fs.Open("a")
	runSim(t, func(p *simtime.Proc) {
		w := buffer.NewReal(3 << 20)
		w.Fill(7, 1000)
		f.WriteAt(p, 0, 1000, w)
		r := buffer.NewReal(3 << 20)
		f.ReadAt(p, 1, 1000, r)
		if i := r.Verify(7, 1000); i != -1 {
			t.Errorf("mismatch at byte %d", i)
		}
	})
}

func TestUnwrittenBytesReadZero(t *testing.T) {
	_, fs := testRig(t)
	f := fs.Open("a")
	runSim(t, func(p *simtime.Proc) {
		w := buffer.NewReal(10)
		w.Fill(1, 100)
		f.WriteAt(p, 0, 100, w)
		r := buffer.NewReal(30)
		f.ReadAt(p, 0, 90, r)
		for i := 0; i < 10; i++ {
			if r.Bytes()[i] != 0 {
				t.Fatalf("pre-gap byte %d nonzero", i)
			}
		}
		if i := r.Slice(10, 10).Verify(1, 100); i != -1 {
			t.Fatalf("written region mismatch at %d", i)
		}
		for i := 20; i < 30; i++ {
			if r.Bytes()[i] != 0 {
				t.Fatalf("post-gap byte %d nonzero", i)
			}
		}
	})
}

func TestOverlappingWritesLastWins(t *testing.T) {
	_, fs := testRig(t)
	f := fs.Open("a")
	runSim(t, func(p *simtime.Proc) {
		w1 := buffer.NewReal(100)
		w1.Fill(1, 0)
		f.WriteAt(p, 0, 0, w1)
		w2 := buffer.NewReal(50)
		w2.Fill(2, 25)
		f.WriteAt(p, 0, 25, w2)
		r := buffer.NewReal(100)
		f.ReadAt(p, 0, 0, r)
		if i := r.Slice(0, 25).Verify(1, 0); i != -1 {
			t.Fatalf("head overwritten at %d", i)
		}
		if i := r.Slice(25, 50).Verify(2, 25); i != -1 {
			t.Fatalf("overlap not overwritten at %d", i)
		}
		if i := r.Slice(75, 25).Verify(1, 75); i != -1 {
			t.Fatalf("tail overwritten at %d", i)
		}
	})
}

func TestSplitByOSTRoundRobin(t *testing.T) {
	_, fs := testRig(t) // 4 OSTs, 1 MiB stripes
	su := int64(1 << 20)
	runs := fs.splitByOST(0, 6*su)
	if len(runs) != 4 {
		t.Fatalf("runs %v, want 4 OSTs", runs)
	}
	// Stripes 0..5 -> OSTs 0,1,2,3,0,1: OSTs 0,1 get 2 MiB, OSTs 2,3 get 1 MiB.
	want := map[int]int64{0: 2 * su, 1: 2 * su, 2: su, 3: su}
	for _, r := range runs {
		if want[r.ost] != r.bytes {
			t.Fatalf("OST %d got %d bytes, want %d", r.ost, r.bytes, want[r.ost])
		}
	}
}

func TestSplitByOSTConservesBytes(t *testing.T) {
	_, fs := testRig(t)
	f := func(off, n uint32) bool {
		o, sz := int64(off), int64(n%(64<<20))
		total := int64(0)
		for _, r := range fs.splitByOST(o, sz) {
			if r.bytes <= 0 {
				return false
			}
			total += r.bytes
		}
		return total == sz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedExtentSplit(t *testing.T) {
	_, fs := testRig(t)
	su := int64(1 << 20)
	// Start mid-stripe 1, end mid-stripe 2: OST1 gets the tail of
	// stripe 1, OST2 the head of stripe 2.
	runs := fs.splitByOST(su+su/2, su)
	if len(runs) != 2 {
		t.Fatalf("runs %v, want 2", runs)
	}
	if runs[0].ost != 1 || runs[0].bytes != su/2 || runs[1].ost != 2 || runs[1].bytes != su/2 {
		t.Fatalf("bad split %v", runs)
	}
}

func TestLargeContiguousBeatsManySmall(t *testing.T) {
	// The property collective I/O relies on: same bytes, fewer
	// requests, faster. 16 MiB in one call vs 256 calls of 64 KiB.
	_, fs1 := testRig(t)
	var tOne float64
	runSim(t, func(p *simtime.Proc) {
		fs1.Open("a").WriteAt(p, 0, 0, buffer.NewPhantom(16<<20))
		tOne = p.Now()
	})
	_, fs2 := testRig(t)
	var tMany float64
	runSim(t, func(p *simtime.Proc) {
		f := fs2.Open("a")
		for i := int64(0); i < 256; i++ {
			f.WriteAt(p, 0, i*(64<<10), buffer.NewPhantom(64<<10))
		}
		tMany = p.Now()
	})
	if tOne*2 > tMany {
		t.Fatalf("large contiguous (%g s) not clearly faster than many small (%g s)", tOne, tMany)
	}
}

func TestPhantomWriteTracksSizeOnly(t *testing.T) {
	_, fs := testRig(t)
	f := fs.Open("a")
	runSim(t, func(p *simtime.Proc) {
		f.WriteAt(p, 0, 1<<30, buffer.NewPhantom(1<<20))
	})
	if f.Size() != 1<<30+1<<20 {
		t.Fatalf("size %d", f.Size())
	}
	if len(f.data.blocks) != 0 {
		t.Fatalf("phantom write stored %d blocks", len(f.data.blocks))
	}
}

func TestStatsAccumulate(t *testing.T) {
	fs, reg, _ := observedRig(t, 0, 0)
	f := fs.Open("a")
	runSim(t, func(p *simtime.Proc) {
		f.WriteAt(p, 0, 0, buffer.NewPhantom(4<<20))
		f.ReadAt(p, 0, 0, buffer.NewPhantom(2<<20))
	})
	s := reg.Snapshot()
	for _, c := range []struct {
		name, op string
		want     float64
	}{
		{"pfs_bytes_total", "write", 4 << 20},
		{"pfs_bytes_total", "read", 2 << 20},
		{"pfs_requests_total", "write", 4}, // one request per OST
		{"pfs_requests_total", "read", 2},
	} {
		if got, _ := s.Get(c.name, map[string]string{"op": c.op}); got != c.want {
			t.Errorf("%s{op=%s} = %g, want %g", c.name, c.op, got, c.want)
		}
	}
}

func TestConcurrentClientsShareOSTs(t *testing.T) {
	// Two clients streaming to disjoint extents on the same OSTs:
	// combined finish must respect aggregate OST capacity.
	_, fs := testRig(t)
	e := simtime.NewEngine()
	var d0, d1 float64
	const sz = 32 << 20 // spans all 4 OSTs, 8 MiB each
	f := fs.Open("a")
	e.Spawn("c0", func(p *simtime.Proc) { d0 = f.WriteAt(p, 0, 0, buffer.NewPhantom(sz)) })
	e.Spawn("c1", func(p *simtime.Proc) { d1 = f.WriteAt(p, 2, sz, buffer.NewPhantom(sz)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	last := d0
	if d1 > last {
		last = d1
	}
	// Each OST carries 16 MiB total at 1e8 B/s => >= 0.167 s.
	if last < 16.0*(1<<20)/1e8 {
		t.Fatalf("finish %g s beats per-OST capacity", last)
	}
}

func TestOpenSameNameSharesData(t *testing.T) {
	_, fs := testRig(t)
	a := fs.Open("x")
	b := fs.Open("x")
	runSim(t, func(p *simtime.Proc) {
		w := buffer.NewReal(8)
		w.Fill(3, 0)
		a.WriteAt(p, 0, 0, w)
		r := buffer.NewReal(8)
		b.ReadAt(p, 0, 0, r)
		if i := r.Verify(3, 0); i != -1 {
			t.Errorf("handles don't share data, mismatch at %d", i)
		}
	})
}

func TestBadConfigRejected(t *testing.T) {
	m, _ := cluster.New(cluster.Config{
		Nodes: 1, CoresPerNode: 1, MemPerNode: 1 << 20,
		MemBusBW: 1, NICBW: 1, BisectionBW: 1, IONetBW: 1,
	})
	bad := []Config{
		{OSTs: 0, StripeUnit: 1, OSTBW: 1},
		{OSTs: 1, StripeUnit: 0, OSTBW: 1},
		{OSTs: 1, StripeUnit: 1, OSTBW: 0},
		{OSTs: 1, StripeUnit: 1, OSTBW: 1, OSTLatency: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, m); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWriteVecReadVecRoundTrip(t *testing.T) {
	_, fs := testRig(t)
	f := fs.Open("vec")
	runSim(t, func(p *simtime.Proc) {
		offs := []int64{100, 5000, 9000}
		var bufs []buffer.Buf
		for i, off := range offs {
			b := buffer.NewReal(int64(200 + i*50))
			b.Fill(uint64(i+1), off)
			bufs = append(bufs, b)
		}
		f.WriteVec(p, 0, offs, bufs)
		var outs []buffer.Buf
		for i := range offs {
			outs = append(outs, buffer.NewReal(int64(200+i*50)))
		}
		f.ReadVec(p, 1, offs, outs)
		for i, off := range offs {
			if j := outs[i].Verify(uint64(i+1), off); j != -1 {
				t.Errorf("run %d mismatch at %d", i, j)
			}
		}
	})
}

func TestWriteVecPipelinesFasterThanSerialWrites(t *testing.T) {
	mk := func() (*FS, []int64, []buffer.Buf) {
		_, fs := testRig(t)
		var offs []int64
		var bufs []buffer.Buf
		for i := int64(0); i < 32; i++ {
			offs = append(offs, i*(128<<10))
			bufs = append(bufs, buffer.NewPhantom(64<<10))
		}
		return fs, offs, bufs
	}
	var vec, serial float64
	fs1, offs, bufs := mk()
	runSim(t, func(p *simtime.Proc) {
		fs1.Open("a").WriteVec(p, 0, offs, bufs)
		vec = p.Now()
	})
	fs2, offs2, bufs2 := mk()
	runSim(t, func(p *simtime.Proc) {
		f := fs2.Open("a")
		for i := range offs2 {
			f.WriteAt(p, 0, offs2[i], bufs2[i])
		}
		serial = p.Now()
	})
	if vec >= serial {
		t.Fatalf("vectored %g s not faster than serial %g s", vec, serial)
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	_, fs := testRig(t)
	f := fs.Open("x")
	runSim(t, func(p *simtime.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		f.WriteVec(p, 0, []int64{0, 1}, []buffer.Buf{buffer.NewPhantom(1)})
	})
}

func TestJitterSlowsAndStaysDeterministic(t *testing.T) {
	run := func(jitter float64, seed uint64) float64 {
		m, _ := cluster.New(cluster.Config{
			Nodes: 1, CoresPerNode: 1, MemPerNode: 64 * cluster.MiB,
			MemBusBW: 1e10, NICBW: 1e9, BisectionBW: 1e10, IONetBW: 1e9,
		})
		fs, err := New(Config{OSTs: 4, StripeUnit: 1 << 20, OSTBW: 1e8, OSTLatency: 1e-3,
			JitterMean: jitter, Seed: seed}, m)
		if err != nil {
			t.Fatal(err)
		}
		var done float64
		e := simtime.NewEngine()
		e.Spawn("p", func(p *simtime.Proc) {
			f := fs.Open("a")
			for i := int64(0); i < 16; i++ {
				f.WriteAt(p, 0, i<<20, buffer.NewPhantom(1<<20))
			}
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	calm := run(0, 1)
	noisy := run(20e-3, 1)
	if noisy <= calm {
		t.Fatalf("jitter did not slow the run: %g vs %g", noisy, calm)
	}
	if run(20e-3, 1) != noisy {
		t.Fatal("jitter not deterministic for fixed seed")
	}
	if run(20e-3, 2) == noisy {
		t.Fatal("different jitter seeds gave identical timing")
	}
}

func TestNegativeJitterRejected(t *testing.T) {
	m, _ := cluster.New(cluster.Config{
		Nodes: 1, CoresPerNode: 1, MemPerNode: 1 << 20,
		MemBusBW: 1, NICBW: 1, BisectionBW: 1, IONetBW: 1,
	})
	if _, err := New(Config{OSTs: 1, StripeUnit: 1, OSTBW: 1, JitterMean: -1}, m); err == nil {
		t.Fatal("negative jitter accepted")
	}
}

// TestAtIsOneRunVec pins WriteAt and ReadAt as one-run batches of the
// request loop WriteVec and ReadVec share. Two rigs with the same jitter
// seed serve the same random requests — offsets and lengths crossing
// stripe boundaries, from ranks on both nodes in flight at once — one
// through the At entry points and one through one-run Vec calls. Every
// request must complete at the same instant and read back the same
// bytes, and the pfs_* counters and the trace events must agree.
func TestAtIsOneRunVec(t *testing.T) {
	type req struct {
		write  bool
		off, n int64
	}
	const ranks, perRank = 4, 16
	rng := stats.NewRNG(7)
	reqs := make([][]req, ranks)
	for r := range reqs {
		for i := 0; i < perRank; i++ {
			reqs[r] = append(reqs[r], req{
				write: i < perRank/4 || rng.Intn(2) == 0,
				off:   rng.Int63n(6 << 20),
				n:     1 + rng.Int63n(3<<20),
			})
		}
	}
	type outcome struct {
		done   [][]float64
		read   [][][]byte
		counts metrics.Snapshot
		events []obs.Event
	}
	serve := func(vec bool) outcome {
		fs, reg, tr := observedRig(t, 2e-3, 11)
		f := fs.Open("a")
		e := simtime.NewEngine()
		tr.SetClock(e.Now)
		out := outcome{done: make([][]float64, ranks), read: make([][][]byte, ranks)}
		for r := 0; r < ranks; r++ {
			e.Spawn("c", func(p *simtime.Proc) {
				for i, q := range reqs[r] {
					b := buffer.NewReal(q.n)
					var done float64
					switch {
					case q.write:
						b.Fill(uint64(r*perRank+i), q.off)
						if vec {
							done = f.WriteVec(p, r, []int64{q.off}, []buffer.Buf{b})
						} else {
							done = f.WriteAt(p, r, q.off, b)
						}
					case vec:
						done = f.ReadVec(p, r, []int64{q.off}, []buffer.Buf{b})
					default:
						done = f.ReadAt(p, r, q.off, b)
					}
					if !q.write {
						out.read[r] = append(out.read[r], b.Bytes())
					}
					out.done[r] = append(out.done[r], done)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out.counts, out.events = reg.Snapshot(), tr.Events()
		return out
	}
	at, vec := serve(false), serve(true)
	if !reflect.DeepEqual(at.done, vec.done) {
		t.Errorf("completion times differ:\nAt  %v\nVec %v", at.done, vec.done)
	}
	if !reflect.DeepEqual(at.read, vec.read) {
		t.Error("bytes read back differ")
	}
	if !reflect.DeepEqual(at.counts, vec.counts) {
		t.Errorf("pfs counters differ:\nAt  %+v\nVec %+v", at.counts, vec.counts)
	}
	if !reflect.DeepEqual(at.events, vec.events) {
		t.Errorf("trace events differ: %d vs %d events", len(at.events), len(vec.events))
	}
	if v, _ := at.counts.Get("pfs_requests_total", map[string]string{"op": "read"}); v == 0 {
		t.Error("no read requests counted; the comparison saw no reads")
	}
}

// TestTransferZeroAllocs asserts that, warm, no entry point allocates:
// the one-run batches WriteAt and ReadAt build must stay on the stack,
// and the split scratch, client paths and counters are reused.
func TestTransferZeroAllocs(t *testing.T) {
	fs, _, _ := observedRig(t, 1e-3, 3)
	f := fs.Open("a")
	offs := []int64{0, 3 << 20, 9 << 20}
	bufs := []buffer.Buf{buffer.NewPhantom(1 << 20), buffer.NewPhantom(2 << 20), buffer.NewPhantom(5 << 20)}
	one := buffer.NewPhantom(3 << 20)
	fs.machine.SetTracer(nil) // recording events allocates by design; metrics stay on
	runSim(t, func(p *simtime.Proc) {
		i := int64(0)
		step := func() {
			off := (i % 5) << 20
			f.WriteAt(p, int(i%4), off+1000, one)
			f.ReadAt(p, int(i%4), off, one)
			f.WriteVec(p, int(i%4), offs, bufs)
			f.ReadVec(p, int(i%4), offs, bufs)
			i++
		}
		step()
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("warm request batches allocate %.1f objects per four calls, want 0", avg)
		}
	})
}
