package collio

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

func testRig(t testing.TB, nodes, cores int, memPerNode int64) (*simtime.Engine, *cluster.Machine, *pfs.FS) {
	t.Helper()
	e := simtime.NewEngine()
	m, err := cluster.New(cluster.Config{
		Nodes: nodes, CoresPerNode: cores,
		MemPerNode: memPerNode,
		MemBusBW:   1e10, MemBusLat: 1e-7,
		NICBW: 1e9, NICLat: 1e-6,
		BisectionBW: float64(nodes) * 5e8, BisectionLat: 1e-6,
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

// fillViewBuffer mirrors the iolib test helper: pattern keyed by file offset.
func fillViewBuffer(view datatype.List, tag uint64) buffer.Buf {
	buf := buffer.NewReal(view.TotalBytes())
	var pos int64
	for _, s := range view {
		buf.Slice(pos, s.Len).Fill(tag, s.Off)
		pos += s.Len
	}
	return buf
}

// interleavedView gives rank r blocks r, r+p, r+2p... of blockLen bytes.
func interleavedView(rank, nprocs int, blocks int, blockLen int64) datatype.List {
	v := datatype.Vector{Count: int64(blocks), BlockLen: blockLen, Stride: blockLen * int64(nprocs)}
	return datatype.Normalize(v.Segments(nil, int64(rank)*blockLen))
}

func TestOffsetWindows(t *testing.T) {
	w := OffsetWindows(10, 45, 10)
	want := []datatype.Segment{{Off: 10, Len: 10}, {Off: 20, Len: 10}, {Off: 30, Len: 10}, {Off: 40, Len: 5}}
	if len(w) != len(want) {
		t.Fatalf("windows %v", w)
	}
	for i := range w {
		if w[i] != want[i] {
			t.Fatalf("windows %v, want %v", w, want)
		}
	}
	if w := OffsetWindows(5, 5, 10); len(w) != 0 {
		t.Fatalf("empty range gave %v", w)
	}
}

func TestCoverageWindowsAdvanceByData(t *testing.T) {
	cov := datatype.List{{Off: 0, Len: 10}, {Off: 100, Len: 10}, {Off: 200, Len: 10}}
	w := CoverageWindows(nil, cov, 0, 210, 15)
	// First window: 10 bytes at [0,10) + 5 bytes at [100,105) => extent [0,105).
	want := []datatype.Segment{{Off: 0, Len: 105}, {Off: 105, Len: 105}}
	if len(w) != 2 || w[0] != want[0] || w[1] != want[1] {
		t.Fatalf("windows %v, want %v", w, want)
	}
}

// TestCoverageWindowsProperty: over random coverage and a random domain
// [lo, hi), the windows CoverageWindows appends after dst's own are
// ordered, inside the domain, hold (0, buf] covered bytes each, cover
// the domain's coverage exactly, and number ceil(data / buf) — the
// count planners size one backing array by.
func TestCoverageWindowsProperty(t *testing.T) {
	f := func(seed uint64, bufRaw uint16) bool {
		r := stats.NewRNG(seed)
		raw := make([]datatype.Segment, 1+r.Intn(25))
		for i := range raw {
			raw[i] = datatype.Segment{Off: r.Int63n(5000), Len: 1 + r.Int63n(300)}
		}
		cov := datatype.Normalize(raw)
		buf := int64(bufRaw%2048) + 1
		lo := r.Int63n(5300)
		hi := lo + r.Int63n(5300-lo+1)
		dst := []datatype.Segment{{Off: -9, Len: 1}}
		ws := CoverageWindows(dst, cov, lo, hi, buf)
		if ws[0] != dst[0] {
			return false // dst's own windows overwritten
		}
		ws = ws[1:]
		var covered int64
		prev := lo
		for _, w := range ws {
			if w.Len <= 0 || w.Off < prev || w.End() > hi {
				return false // disordered, empty, or outside the domain
			}
			prev = w.End()
			data := cov.Clip(w.Off, w.End()).TotalBytes()
			if data == 0 || data > buf {
				return false // window data outside (0, buf]
			}
			covered += data
		}
		want := cov.Clip(lo, hi).TotalBytes()
		return covered == want && int64(len(ws)) == (want+buf-1)/buf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanValidate(t *testing.T) {
	good := &Plan{
		Domains: []Domain{{Agg: 0, Lo: 0, Hi: 100, BufBytes: 10, Windows: OffsetWindows(0, 100, 10)}},
		Exts:    make([]Ext, 2),
		Tree:    RemergeTree{-1},
	}
	if err := good.Validate(2); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	led := *good
	led.LeaderOf = []int{1, 1}
	led.LeaderSucc = [][]int{{1, 0}, {1, 0}}
	if err := led.Validate(2); err != nil {
		t.Fatalf("good leader plan rejected: %v", err)
	}
	withLeaders := func(leaderOf []int, succ [][]int) *Plan {
		return &Plan{Exts: make([]Ext, 2), LeaderOf: leaderOf, LeaderSucc: succ}
	}
	// Three domains of three ranks, and a remerge tree over them.
	withTree := func(tree RemergeTree) *Plan {
		p := &Plan{Exts: make([]Ext, 3), Tree: tree}
		for i := range 3 {
			lo := int64(i) * 10
			p.Domains = append(p.Domains, Domain{Agg: i, Lo: lo, Hi: lo + 10, BufBytes: 4, Windows: OffsetWindows(lo, lo+10, 4)})
		}
		return p
	}
	for _, tree := range []RemergeTree{balancedTree(3), {4, 3, 3, 4, -1}} {
		if err := withTree(tree).Validate(3); err != nil {
			t.Errorf("good remerge tree %v rejected: %v", tree, err)
		}
	}
	badTrees := []struct {
		tree RemergeTree
		want string
	}{
		{RemergeTree{3, 3, 4, 4}, "vertices for 3 domains"},                   // leaves: not one per domain
		{RemergeTree{3, 3, 4, -1, -1}, "has parent -1"},                       // well formed: two roots
		{RemergeTree{3, 4, 4, 4, -1}, "vertex 3 has 1 children"},              // two children: vertex 3 has one
		{RemergeTree{3, 4, 3, 4, -1}, "vertex 3's children are not adjacent"}, // adjacent ranges: (0,2) then 1
	}
	for _, tc := range badTrees {
		if err := withTree(tc.tree).Validate(3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("remerge tree %v: error %v, want one saying %q", tc.tree, err, tc.want)
		}
	}
	bad := []*Plan{
		{Domains: []Domain{{Agg: 5}}, Exts: make([]Ext, 2), Tree: RemergeTree{-1}},
		{Domains: []Domain{{Agg: 0, Lo: 0, Hi: 10, BufBytes: 4, Windows: OffsetWindows(0, 10, 4)}, {Agg: 0, Lo: 10, Hi: 20, BufBytes: 4, Windows: OffsetWindows(10, 20, 4)}}, Exts: make([]Ext, 2), Tree: balancedTree(2)},
		{Domains: []Domain{{Agg: 0, Lo: 10, Hi: 5}}, Exts: make([]Ext, 2), Tree: RemergeTree{-1}},
		{Domains: []Domain{{Agg: 0, Lo: 0, Hi: 10, BufBytes: 4, Windows: []datatype.Segment{{Off: 0, Len: 20}}}}, Exts: make([]Ext, 2), Tree: RemergeTree{-1}},
		{Exts: make([]Ext, 1)},
		withLeaders([]int{0}, nil),                      // wrong length
		withLeaders([]int{0, 2}, nil),                   // leader out of range
		withLeaders([]int{1, 0}, nil),                   // leaders do not lead themselves
		withLeaders([]int{0, 0}, [][]int{{0, 1}}),       // succession: wrong length
		withLeaders([]int{0, 0}, [][]int{{0, 2}, {0}}),  // succession: entry out of range
		withLeaders([]int{0, 0}, [][]int{{0, -1}, {0}}), // succession: negative entry
	}
	for i, p := range bad {
		if err := p.Validate(2); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

// TestPlanValidateAllocationFree: validating a plan of up to 32 domains
// touches no heap, leader map or not — the check runs once for every
// collective, so an allocation here is one per collective call.
func TestPlanValidateAllocationFree(t *testing.T) {
	const doms, ranks = 32, 64
	p := &Plan{Exts: make([]Ext, ranks), Tree: balancedTree(doms), LeaderOf: make([]int, ranks)}
	for i := range doms {
		lo := int64(i) * 100
		p.Domains = append(p.Domains, Domain{Agg: 2 * (doms - 1 - i), Lo: lo, Hi: lo + 100, BufBytes: 40, Windows: OffsetWindows(lo, lo+100, 40)})
	}
	for r := range p.LeaderOf {
		p.LeaderOf[r] = r &^ 1
	}
	if err := p.Validate(ranks); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = p.Validate(ranks) }); avg != 0 {
		t.Fatalf("validating a %d-domain plan allocates %.1f objects, want 0", doms, avg)
	}
}

// runCollective drives nprocs ranks through one write+readback cycle
// with the given strategy and returns rank 0's write result.
func runCollective(t *testing.T, s iolib.Collective, nodes, cores, nprocs, blocks int, blockLen int64) trace.Result {
	t.Helper()
	e, m, fs := testRig(t, nodes, cores, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("shared")
	var res trace.Result
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), nprocs, blocks, blockLen)
		data := fillViewBuffer(view, uint64(c.Rank()))
		r := iolib.Run(s, "write", f, c, view, data, &trace.Metrics{})
		if c.Rank() == 0 {
			res = r
		}
		dst := buffer.NewReal(view.TotalBytes())
		iolib.Run(s, "read", f, c, view, dst, &trace.Metrics{})
		var pos int64
		for _, seg := range view {
			if i := dst.Slice(pos, seg.Len).Verify(uint64(c.Rank()), seg.Off); i != -1 {
				t.Errorf("rank %d segment %v mismatch at %d", c.Rank(), seg, i)
			}
			pos += seg.Len
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoPhaseWriteReadRoundTrip(t *testing.T) {
	res := runCollective(t, TwoPhase{CBBuffer: 256 << 10}, 2, 3, 6, 16, 4<<10)
	if res.Bytes != 6*16*4<<10 {
		t.Fatalf("bytes %d", res.Bytes)
	}
	if res.Aggregators != 2 {
		t.Fatalf("aggregators %d, want 2 (one per node)", res.Aggregators)
	}
	if res.Rounds < 1 {
		t.Fatalf("rounds %d", res.Rounds)
	}
}

func TestTwoPhaseSmallBufferMeansMoreRounds(t *testing.T) {
	big := runCollective(t, TwoPhase{CBBuffer: 1 << 20}, 2, 2, 4, 16, 4<<10)
	small := runCollective(t, TwoPhase{CBBuffer: 32 << 10}, 2, 2, 4, 16, 4<<10)
	if small.Rounds <= big.Rounds {
		t.Fatalf("rounds small=%d big=%d; smaller buffer must need more rounds", small.Rounds, big.Rounds)
	}
	if small.BandwidthMBps() >= big.BandwidthMBps() {
		t.Fatalf("bandwidth small=%.1f big=%.1f; more rounds must cost bandwidth", small.BandwidthMBps(), big.BandwidthMBps())
	}
}

func TestTwoPhaseBeatsIndependentOnInterleaved(t *testing.T) {
	tp := runCollective(t, TwoPhase{CBBuffer: 1 << 20}, 2, 4, 8, 32, 1<<10)
	ind := runCollective(t, iolib.Naive{Opts: iolib.SieveOptions{}}, 2, 4, 8, 32, 1<<10)
	if tp.BandwidthMBps() <= ind.BandwidthMBps() {
		t.Fatalf("two-phase %.1f MB/s not better than independent %.1f MB/s on interleaved pattern",
			tp.BandwidthMBps(), ind.BandwidthMBps())
	}
}

func TestTwoPhaseWriteWithHolesPreservesSurroundings(t *testing.T) {
	e, m, fs := testRig(t, 2, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("shared")
	const fileSize = 64 << 10
	w.Start(func(c *mpi.Comm) {
		// Rank 0 pre-writes the whole file independently.
		if c.Rank() == 0 {
			base := buffer.NewReal(fileSize)
			base.Fill(99, 0)
			f.WriteAt(c.Proc(), 0, 0, base)
		}
		c.Barrier()
		// Collective write touches every second 512-byte block only.
		view := interleavedView(c.Rank(), 8, 8, 512) // ranks 0..3 of an 8-wide stride: holes remain
		data := fillViewBuffer(view, uint64(c.Rank()))
		iolib.Run(TwoPhase{CBBuffer: 4 << 10}, "write", f, c, view, data, &trace.Metrics{})
		c.Barrier()
		if c.Rank() == 0 {
			out := buffer.NewReal(fileSize)
			f.ReadAt(c.Proc(), 0, 0, out)
			// Within the written extent (blocks 0..63), blocks belonging
			// to ranks 0..3 carry their tags; stride positions 4..7 and
			// everything past the extent keep the pre-image.
			for blk := int64(0); blk < fileSize/512; blk++ {
				ownerSlot := blk % 8
				got := out.Slice(blk*512, 512)
				if ownerSlot < 4 && blk < 64 {
					if i := got.Verify(uint64(ownerSlot), blk*512); i != -1 {
						t.Errorf("block %d (rank %d) mismatch at %d", blk, ownerSlot, i)
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

func TestTwoPhaseEffectiveBufferCappedByNodeMemory(t *testing.T) {
	// Node memory of 1 MiB cannot host a 64 MiB collective buffer.
	e, m, fs := testRig(t, 2, 2, 1*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("shared")
	var res trace.Result
	w.Start(func(c *mpi.Comm) {
		view := interleavedView(c.Rank(), 4, 8, 4<<10)
		data := buffer.NewPhantom(view.TotalBytes())
		r := iolib.Run(TwoPhase{CBBuffer: 64 << 20}, "write", f, c, view, data, &trace.Metrics{})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, b := range res.AggBufferBytes {
		if b > 1*cluster.MiB {
			t.Fatalf("aggregator buffer %d exceeds node capacity", b)
		}
	}
	for n := 0; n < m.NumNodes(); n++ {
		if hw := m.Node(n).HighWater(); hw > 1*cluster.MiB {
			t.Fatalf("ledger high water %d exceeds capacity", hw)
		}
	}
}

func TestTwoPhaseEmptyViewsEverywhere(t *testing.T) {
	e, m, fs := testRig(t, 1, 4, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("shared")
	w.Start(func(c *mpi.Comm) {
		iolib.Run(TwoPhase{CBBuffer: 1 << 20}, "write", f, c, nil, buffer.NewPhantom(0), &trace.Metrics{})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoPhasePlanSharedByEveryRank: the plan is built once per
// call and every rank holds the same pointer, as it does the metadata
// it was built from — with data and without.
func TestTwoPhasePlanSharedByEveryRank(t *testing.T) {
	const p = 6
	e, m, _ := testRig(t, 2, 3, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, p)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([][2]*Plan, p)
	w.Start(func(c *mpi.Comm) {
		for call, view := range []datatype.List{interleavedView(c.Rank(), p, 4, 4<<10), nil} {
			plans[c.Rank()][call] = planOf(TwoPhase{CBBuffer: 16 << 10})(c, view)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if plans[0][0] == plans[0][1] {
		t.Fatal("two calls returned one plan")
	}
	for r := range plans {
		for call, plan := range plans[r] {
			if plan != plans[0][call] || &plan.Exts[0] != &plans[0][call].Exts[0] {
				t.Errorf("call %d: rank %d holds its own plan or extents", call, r)
			}
		}
	}
}

func TestTwoPhaseOneRankHasAllData(t *testing.T) {
	e, m, fs := testRig(t, 2, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("shared")
	w.Start(func(c *mpi.Comm) {
		var view datatype.List
		if c.Rank() == 2 {
			view = datatype.List{{Off: 0, Len: 256 << 10}}
		}
		var data buffer.Buf
		if len(view) > 0 {
			data = fillViewBuffer(view, 7)
		} else {
			data = buffer.NewReal(0)
		}
		iolib.Run(TwoPhase{CBBuffer: 64 << 10}, "write", f, c, view, data, &trace.Metrics{})
		c.Barrier()
		if c.Rank() == 0 {
			out := buffer.NewReal(256 << 10)
			f.ReadAt(c.Proc(), 0, 0, out)
			if i := out.Verify(7, 0); i != -1 {
				t.Errorf("mismatch at %d", i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPhaseShuffleTrafficAccounted(t *testing.T) {
	res := runCollective(t, TwoPhase{CBBuffer: 1 << 20}, 2, 2, 4, 16, 4<<10)
	if res.BytesShuffleIntra+res.BytesShuffleInter == 0 {
		t.Fatal("no shuffle traffic recorded")
	}
	if res.BytesIO == 0 || res.IORequests == 0 {
		t.Fatal("no I/O recorded")
	}
}

func TestExecutePanicsOnInvalidPlan(t *testing.T) {
	e, m, fs := testRig(t, 1, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Error("invalid plan did not panic")
			}
		}()
		bad := &Plan{Domains: []Domain{{Agg: 9}}, Exts: make([]Ext, 2)}
		bad.Run("write", f, c, nil, buffer.NewPhantom(0), nil)
	})
	_ = e.Run()
}

func TestEmptyPlanIsNoop(t *testing.T) {
	e, m, fs := testRig(t, 1, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		plan := &Plan{Exts: make([]Ext, 2)}
		var mtr trace.Metrics
		plan.Run("write", f, c, nil, buffer.NewPhantom(0), &mtr)
		plan.Run("read", f, c, nil, buffer.NewPhantom(0), &mtr)
		if mtr.Rounds != 0 || mtr.BytesIO != 0 {
			t.Errorf("empty plan moved data: %+v", mtr)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorWithoutOwnDataStillServes(t *testing.T) {
	// Rank 0 (the aggregator under one-per-node) has no data of its
	// own; ranks 1..3 write through it.
	e, m, fs := testRig(t, 1, 4, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		var view datatype.List
		if c.Rank() > 0 {
			view = datatype.List{{Off: int64(c.Rank()-1) * 4096, Len: 4096}}
		}
		data := fillViewBuffer(view, uint64(c.Rank()))
		iolib.Run(TwoPhase{CBBuffer: 1 << 20}, "write", f, c, view, data, &trace.Metrics{})
		c.Barrier()
		if c.Rank() == 0 {
			out := buffer.NewReal(3 * 4096)
			f.ReadAt(c.Proc(), 0, 0, out)
			for r := 1; r <= 3; r++ {
				if i := out.Slice(int64(r-1)*4096, 4096).Verify(uint64(r), int64(r-1)*4096); i != -1 {
					t.Errorf("rank %d region mismatch at %d", r, i)
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStandingRecordsSkippedWindows: a rank that stands through the
// rounds it sits out still records the windows it held in them.
// Aggregator 0's domain ends in a hole and its buffer is four times
// aggregator 2's, so its second window meets no request and falls in a
// round it stands through. Every rank's trace.Metrics must read as on
// the per-round path, for a write and a read.
func TestStandingRecordsSkippedWindows(t *testing.T) {
	const kib = 1 << 10
	views := []datatype.List{nil, {{Off: 0, Len: 256 * kib}}, {{Off: 512 * kib, Len: 256 * kib}}, {{Off: 768 * kib, Len: 256 * kib}}}
	exts := make([]Ext, len(views))
	for r, v := range views {
		if len(v) > 0 {
			exts[r].Lo, exts[r].Hi = v.Extent()
		}
	}
	plan := EvenSplit(exts, []int{0, 2}, []int64{1024 * kib, 0, BufFloor, 0}, 256*kib, 0)
	run := func(op string) []trace.Metrics {
		e, m, fs := testRig(t, 2, 2, 64*cluster.MiB)
		w, err := mpi.NewWorld(e, m, len(views))
		if err != nil {
			t.Fatal(err)
		}
		f := fs.Open("x")
		got := make([]trace.Metrics, len(views))
		w.Start(func(c *mpi.Comm) {
			v := views[c.Rank()]
			plan.Run(op, f, c, v, buffer.NewPhantom(v.TotalBytes()), &got[c.Rank()])
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, op := range []string{"write", "read"} {
		var per []trace.Metrics
		PerRound(func() { per = run(op) })
		if got := run(op); !reflect.DeepEqual(got, per) {
			t.Errorf("%s: per-rank metrics\n%+v\nper round\n%+v", op, got, per)
		}
		if per[0].Rounds != 2 || per[2].Rounds != 8 {
			t.Fatalf("%s: aggregators served %d and %d rounds, want 2 and 8", op, per[0].Rounds, per[2].Rounds)
		}
	}
}

func TestTwoPhaseReadOfUnwrittenHolesYieldsZeros(t *testing.T) {
	e, m, fs := testRig(t, 1, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	w.Start(func(c *mpi.Comm) {
		// Read a sparse view of a file nobody wrote.
		view := datatype.List{{Off: int64(c.Rank()) * 8192, Len: 1024}}
		dst := fillViewBuffer(view, 77) // junk that must be zeroed
		iolib.Run(TwoPhase{CBBuffer: 64 << 10}, "read", f, c, view, dst, &trace.Metrics{})
		for i, b := range dst.Bytes() {
			if b != 0 {
				t.Errorf("rank %d byte %d = %#x, want 0", c.Rank(), i, b)
				break
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAlignStripeDomains(t *testing.T) {
	e, m, fs := testRig(t, 3, 2, 64*cluster.MiB)
	w, err := mpi.NewWorld(e, m, 6)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.Open("x")
	const stripe = 1 << 20
	w.Start(func(c *mpi.Comm) {
		// ~2.4 MiB per rank: domain size is not naturally stripe-sized.
		view := interleavedView(c.Rank(), 6, 5, 512<<10)
		tp := TwoPhase{CBBuffer: 1 << 20, AlignStripe: stripe}
		plan := planOf(tp)(c, view)
		if c.Rank() == 0 {
			for i, d := range plan.Domains {
				if d.Lo%stripe != 0 {
					t.Errorf("domain %d starts at %d, not stripe-aligned", i, d.Lo)
				}
				_, gHi := view.Extent()
				_ = gHi
			}
		}
		// And the plan still works end to end.
		data := fillViewBuffer(view, uint64(c.Rank()))
		iolib.Run(tp, "write", f, c, view, data, &trace.Metrics{})
		dst := buffer.NewReal(view.TotalBytes())
		iolib.Run(tp, "read", f, c, view, dst, &trace.Metrics{})
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
