package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/datatype"
	"repro/internal/iolib"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func testMachine(t *testing.T, nodes, cores int, memPerNode int64, sigma float64) *cluster.Machine {
	t.Helper()
	m, err := cluster.New(cluster.Config{
		Nodes: nodes, CoresPerNode: cores,
		MemPerNode: memPerNode, MemSigma: sigma, Seed: 7,
		MemBusBW: 1e10, MemBusLat: 1e-7,
		NICBW: 1e9, NICLat: 1e-6,
		BisectionBW: float64(nodes) * 5e8, BisectionLat: 1e-6,
		IONetBW: 2e9, IONetLat: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testFS(t *testing.T, m *cluster.Machine) *pfs.FS {
	t.Helper()
	fs, err := pfs.New(pfs.Config{OSTs: 4, StripeUnit: 1 << 20, OSTBW: 5e8, OSTLatency: 5e-4}, m)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func fillViewBuffer(view datatype.List, tag uint64) buffer.Buf {
	buf := buffer.NewReal(view.TotalBytes())
	var pos int64
	for _, s := range view {
		buf.Slice(pos, s.Len).Fill(tag, s.Off)
		pos += s.Len
	}
	return buf
}

func interleavedView(rank, nprocs, blocks int, blockLen int64) datatype.List {
	v := datatype.Vector{Count: int64(blocks), BlockLen: blockLen, Stride: blockLen * int64(nprocs)}
	return datatype.Normalize(v.Segments(nil, int64(rank)*blockLen))
}

func testOpts(msgind, msggroup int64) Options {
	return Options{Msgind: msgind, Msggroup: msggroup, Nah: 2, Memmin: 64 << 10}
}

// runMCCIO drives a write+verify-read cycle and returns rank 0's write result.
func runMCCIO(t *testing.T, s iolib.Collective, m *cluster.Machine, nprocs, blocks int, blockLen int64) trace.Result {
	t.Helper()
	e := simtime.NewEngine()
	// The machine carries link/ledger state; tests construct a fresh
	// machine per run so simtime reservations start clean.
	w, err := mpi.NewWorld(e, m, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	fs := testFS(t, m)
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

func TestMCCIOWriteReadRoundTrip(t *testing.T) {
	m := testMachine(t, 3, 4, 64*cluster.MiB, 0)
	res := runMCCIO(t, MCCIO{Opts: testOpts(128<<10, 512<<10)}, m, 12, 16, 4<<10)
	if res.Bytes != 12*16*4<<10 {
		t.Fatalf("bytes %d", res.Bytes)
	}
	if res.Groups < 2 {
		t.Fatalf("groups %d: msggroup should have split this workload", res.Groups)
	}
	if res.Aggregators == 0 || res.Rounds == 0 {
		t.Fatalf("bad result %+v", res.Metrics)
	}
}

func TestMCCIOSingleGroupWhenDisabled(t *testing.T) {
	m := testMachine(t, 2, 2, 64*cluster.MiB, 0)
	opts := testOpts(128<<10, 1<<10)
	opts.DisableGroups = true
	res := runMCCIO(t, MCCIO{Opts: opts}, m, 4, 8, 4<<10)
	if res.Groups != 1 {
		t.Fatalf("groups %d with grouping disabled", res.Groups)
	}
}

func TestMCCIOCollapsesToOneDomainUnderMemoryPressure(t *testing.T) {
	// Memmin far above node capacity: the memory-aware leaf budget
	// admits a single domain, and the operation still completes.
	m := testMachine(t, 2, 2, 1*cluster.MiB, 0)
	opts := Options{Msgind: 64 << 10, Msggroup: 0, Nah: 2, Memmin: 16 * cluster.MiB}
	res := runMCCIO(t, MCCIO{Opts: opts}, m, 4, 8, 4<<10)
	if res.Aggregators != 1 {
		t.Fatalf("aggregators %d, want 1 under impossible Memmin", res.Aggregators)
	}
}

// placerScenario builds a placer over two hosts where host 1 can pay
// Memmin once but not twice, so the second leaf preferring it must
// remerge.
func placerScenario(t *testing.T, disableRemerge bool) *placer {
	t.Helper()
	// 4 ranks: 0,1 on node 0; 2,3 on node 1. Interleaved data so every
	// leaf has candidates on both hosts.
	memberSegs := make([]datatype.List, 4)
	for r := 0; r < 4; r++ {
		memberSegs[r] = interleavedView(r, 4, 8, 1<<10)
	}
	var all datatype.List
	for _, s := range memberSegs {
		all = append(all, s...)
	}
	cov := datatype.Normalize(all)
	tree := BuildTree(cov, cov.TotalBytes()/4+1, 4) // 4 leaves
	if len(tree.Leaves()) < 3 {
		t.Fatalf("setup: %d leaves", len(tree.Leaves()))
	}
	opts := Options{Msgind: 1 << 20, Nah: 2, Memmin: 6 << 10, DisableRemerge: disableRemerge}
	nodeAvail := map[int]int64{0: 64 << 10, 1: 8 << 10}
	return newPlacer(tree, memberSegs, []int{0, 0, 1, 1}, nodeAvail, opts, nil, -1)
}

func TestPlacerRemergesWhenSharesRunOut(t *testing.T) {
	p := placerScenario(t, false)
	placements := p.Place()
	// Host 1 (8 KiB) can host at most one Memmin=6KiB aggregator; host
	// 0 two (Nah). 4 leaves cannot all be placed: at least one remerge.
	if p.remerges == 0 {
		t.Fatalf("no remerges; placements: %d", len(placements))
	}
	if len(placements) >= 4 {
		t.Fatalf("%d placements, expected fewer than the 4 initial leaves", len(placements))
	}
	if err := p.tree.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacerNoRemergeWhenDisabled(t *testing.T) {
	p := placerScenario(t, true)
	placements := p.Place()
	if p.remerges != 0 {
		t.Fatalf("remerges %d with remerge disabled", p.remerges)
	}
	if len(placements) != 4 {
		t.Fatalf("%d placements, want all 4 leaves kept", len(placements))
	}
}

func TestMCCIOPlacesAggregatorsOnMemoryRichNodes(t *testing.T) {
	// Under heavy variance, aggregate high-water marks should sit on
	// the nodes with the largest capacity.
	m := testMachine(t, 4, 2, 16*cluster.MiB, 0.8)
	caps := m.MemCapacities()
	runMCCIO(t, MCCIO{Opts: Options{Msgind: 1 << 20, Msggroup: 0, Nah: 1, Memmin: 1 << 20}}, m, 8, 16, 4<<10)
	// Identify the node with max capacity and min capacity.
	maxN, minN := 0, 0
	for i, c := range caps {
		if c > caps[maxN] {
			maxN = i
		}
		if c < caps[minN] {
			minN = i
		}
	}
	hwMax, hwMin := m.Node(maxN).HighWater(), m.Node(minN).HighWater()
	if caps[maxN] > 2*caps[minN] && hwMax == 0 && hwMin > 0 {
		t.Fatalf("placement ignored memory: caps=%v highwater of the largest node %d, of the smallest %d", caps, hwMax, hwMin)
	}
}

func TestMCCIOBeatsTwoPhaseUnderVarianceAndSmallBuffers(t *testing.T) {
	// The headline claim at test scale: when per-node memory is scarce
	// and uneven, MCCIO outperforms the baseline.
	const nprocs, blocks = 24, 32
	const blockLen = 16 << 10
	buildMachine := func() *cluster.Machine {
		return testMachine(t, 6, 4, 2*cluster.MiB, 0.6)
	}
	base := runMCCIO(t, collio.TwoPhase{CBBuffer: 2 * cluster.MiB}, buildMachine(), nprocs, blocks, blockLen)
	opts := Options{Msgind: 2 * cluster.MiB, Msggroup: 8 * cluster.MiB, Nah: 2, Memmin: 256 << 10}
	mcc := runMCCIO(t, MCCIO{Opts: opts}, buildMachine(), nprocs, blocks, blockLen)
	if mcc.BandwidthMBps() <= base.BandwidthMBps() {
		t.Fatalf("mccio %.1f MB/s not better than two-phase %.1f MB/s under memory pressure",
			mcc.BandwidthMBps(), base.BandwidthMBps())
	}
}

func TestMCCIOReducesInterNodeShuffle(t *testing.T) {
	// Group division keeps shuffle traffic closer to home: strictly
	// fewer inter-node shuffle bytes than the global baseline.
	const nprocs, blocks = 16, 16
	const blockLen = 8 << 10
	base := runMCCIO(t, collio.TwoPhase{CBBuffer: 1 << 20}, testMachine(t, 4, 4, 64*cluster.MiB, 0), nprocs, blocks, blockLen)
	opts := Options{Msgind: 1 << 20, Msggroup: 1, Nah: 2, Memmin: 64 << 10} // one group per node
	mcc := runMCCIO(t, MCCIO{Opts: opts}, testMachine(t, 4, 4, 64*cluster.MiB, 0), nprocs, blocks, blockLen)
	if mcc.BytesShuffleInter >= base.BytesShuffleInter {
		t.Fatalf("inter-node shuffle mccio=%d >= baseline=%d", mcc.BytesShuffleInter, base.BytesShuffleInter)
	}
}

func TestMCCIOEmptyViews(t *testing.T) {
	m := testMachine(t, 2, 2, 64*cluster.MiB, 0)
	e := simtime.NewEngine()
	w, err := mpi.NewWorld(e, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := testFS(t, m).Open("x")
	w.Start(func(c *mpi.Comm) {
		iolib.Run(MCCIO{Opts: testOpts(1<<20, 0)}, "write", f, c, nil, buffer.NewPhantom(0), &trace.Metrics{})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMCCIOLedgerReturnsToZero(t *testing.T) {
	m := testMachine(t, 2, 2, 64*cluster.MiB, 0)
	runMCCIO(t, MCCIO{Opts: testOpts(256<<10, 0)}, m, 4, 8, 4<<10)
	for i := 0; i < m.NumNodes(); i++ {
		if u := m.Node(i).Used(); u != 0 {
			t.Fatalf("node %d still has %d bytes allocated", i, u)
		}
	}
}

func TestMCCIOInvalidOptionsPanic(t *testing.T) {
	m := testMachine(t, 1, 1, 64*cluster.MiB, 0)
	e := simtime.NewEngine()
	w, _ := mpi.NewWorld(e, m, 1)
	f := testFS(t, m).Open("x")
	w.Start(func(c *mpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for Msgind=0")
			}
		}()
		iolib.Run(MCCIO{}, "write", f, c, datatype.List{{Off: 0, Len: 8}}, buffer.NewPhantom(8), nil)
	})
	_ = e.Run()
}

func TestDefaultOptionsDerivation(t *testing.T) {
	mc := cluster.TestbedConfig(10)
	fc := pfs.DefaultConfig()
	o := DefaultOptions(mc, fc)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Msgind < fc.StripeUnit || o.Msgind%fc.StripeUnit != 0 {
		t.Fatalf("Msgind %d not stripe-aligned above unit", o.Msgind)
	}
	if o.Nah < 1 || o.Nah > mc.CoresPerNode {
		t.Fatalf("Nah %d out of range", o.Nah)
	}
	if o.Msggroup < o.Msgind {
		t.Fatalf("Msggroup %d below Msgind %d", o.Msggroup, o.Msgind)
	}
	if o.Memmin <= 0 {
		t.Fatalf("Memmin %d", o.Memmin)
	}
}
