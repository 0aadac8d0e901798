package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/resource"
	"repro/internal/ring"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// microDef is one row of the layer micro-table: a public function of
// one layer driven for a fixed number of units, reported as host time
// per unit. run receives the iteration divisor (1 for a full run, more
// for -smoke) and returns the units it performed and the body to time;
// what the body needs is built before it is returned.
type microDef struct {
	name string
	unit string
	run  func(div int) (units int, body func())
}

// microRow is one measured row of the micro-table.
type microRow struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"` // host time per unit, in Unit
	Unit   string  `json:"unit"`
	Allocs float64 `json:"allocs_per_unit"`
}

// microSink keeps results live so the compiler cannot drop a body.
var microSink float64

// measureMicro runs a row three times (once at -smoke scale) and keeps
// the fastest, the usual reading of a microbenchmark on a shared box;
// allocations are from the last run.
func measureMicro(d microDef, div int) microRow {
	scale := 1.0 // ns
	if d.unit == "us" {
		scale = 1e-3
	}
	reps := 3
	if div > 1 {
		reps = 1
	}
	best := microRow{Name: d.name, Unit: d.unit}
	for rep := 0; rep < reps; rep++ {
		units, body := d.run(div)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		body()
		ns := float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&m1)
		if v := ns * scale / float64(units); rep == 0 || v < best.Value {
			best.Value = v
		}
		best.Allocs = float64(m1.Mallocs-m0.Mallocs) / float64(units)
	}
	return best
}

// iters scales a full-run iteration count down for -smoke.
func iters(n, div int) int { return max(n/div, 1) }

// sized shrinks a problem size tenfold at -smoke scale, where a row only
// has to run, not to measure what its name says; sizes stay multiples
// of the testbed's 12 ranks a node.
func sized(n, div int) int {
	if div == 1 {
		return n
	}
	return max(n/120, 1) * 12
}

// microWorld runs body on every rank of a fresh testbed world.
func microWorld(ranks int, body func(c *mpi.Comm)) func() {
	return func() {
		engine := simtime.NewEngine()
		machine, err := cluster.New(cluster.TestbedConfig((ranks + 11) / 12))
		if err != nil {
			panic(err)
		}
		world, err := mpi.NewWorld(engine, machine, ranks)
		if err != nil {
			panic(err)
		}
		world.Start(body)
		if err := engine.Run(); err != nil {
			panic(err)
		}
	}
}

// microVec drives File.WriteVec or ReadVec: batches of 64 phantom
// 1 MiB requests from one process.
func microVec(div int, read bool) (int, func()) {
	const batch = 64
	reps := iters(400, div)
	return reps * batch, func() {
		engine := simtime.NewEngine()
		machine, err := cluster.New(cluster.TestbedConfig(2))
		if err != nil {
			panic(err)
		}
		fs, err := pfs.New(pfs.DefaultConfig(), machine)
		if err != nil {
			panic(err)
		}
		f := fs.Open("micro.dat")
		offs := make([]int64, batch)
		bufs := make([]buffer.Buf, batch)
		for i := range offs {
			offs[i] = int64(i) << 20
			bufs[i] = buffer.NewPhantom(1 << 20)
		}
		engine.Spawn("client", func(p *simtime.Proc) {
			for i := 0; i < reps; i++ {
				if read {
					f.ReadVec(p, 0, offs, bufs)
				} else {
					f.WriteVec(p, 0, offs, bufs)
				}
			}
		})
		if err := engine.Run(); err != nil {
			panic(err)
		}
	}
}

// microLayout is the IOR layout the planner rows plan: ranks × 2
// extents of 64 KiB on ranks/12 testbed nodes with 4 MiB ± σ memory.
type microLayout struct {
	machine *cluster.Machine
	opts    core.Options
	views   []datatype.List
	cover   datatype.List
	bytes   []int64
	exts    []collio.Ext
	nodeOf  []int
	avail   []int64
	span    []int64
}

func newMicroLayout(ranks int) microLayout {
	mc := simMachine(ranks/12, 12, 4*cluster.MiB)
	fc := pfs.DefaultConfig()
	machine, err := cluster.New(mc)
	if err != nil {
		panic(err)
	}
	l := microLayout{machine: machine, opts: core.DefaultOptions(mc, fc)}
	wl := workload.IOR{Ranks: ranks, BlockSize: 64 << 10, Segments: 2}
	var all datatype.List
	for r := 0; r < ranks; r++ {
		v := wl.View(r)
		lo, hi := v.Extent()
		node := machine.NodeOfRank(r)
		l.views = append(l.views, v)
		l.bytes = append(l.bytes, v.TotalBytes())
		l.exts = append(l.exts, collio.Ext{Lo: lo, Hi: hi})
		l.nodeOf = append(l.nodeOf, node)
		l.avail = append(l.avail, machine.Node(node).Available())
		l.span = append(l.span, hi-lo)
		all = append(all, v...)
	}
	l.cover = datatype.Normalize(all)
	return l
}

func microInspect(ranks, reps int) func(div int) (int, func()) {
	return func(div int) (int, func()) {
		l := newMicroLayout(sized(ranks, div))
		n := iters(reps, div)
		return n, func() {
			for i := 0; i < n; i++ {
				if _, err := (core.MCCIO{Opts: l.opts}).Inspect(l.machine, l.views); err != nil {
					panic(err)
				}
			}
		}
	}
}

// microDefs is the layer micro-table: fixed iteration counts, public
// functions only.
var microDefs = []microDef{
	{"simtime.barrier_ns_per_await", "ns", func(div int) (int, func()) {
		const procs = 120
		rounds := iters(2000, div)
		return procs * rounds, func() {
			e := simtime.NewEngine()
			b := simtime.NewBarrier(e, "micro", procs)
			for i := 0; i < procs; i++ {
				e.Spawn(fmt.Sprint("p", i), func(p *simtime.Proc) {
					for r := 0; r < rounds; r++ {
						b.Await(p)
					}
				})
			}
			if err := e.Run(); err != nil {
				panic(err)
			}
		}
	}},
	{"simtime.sleep_ns_per_event", "ns", func(div int) (int, func()) {
		// Eight processes with different periods, so wake-ups interleave
		// and every sleep is a queued event and a park.
		const procs = 8
		sleeps := iters(40000, div)
		return procs * sleeps, func() {
			e := simtime.NewEngine()
			for i := 0; i < procs; i++ {
				period := 1e-6 * float64(i+3)
				e.Spawn(fmt.Sprint("p", i), func(p *simtime.Proc) {
					for s := 0; s < sleeps; s++ {
						p.Sleep(period)
					}
				})
			}
			if err := e.Run(); err != nil {
				panic(err)
			}
		}
	}},
	{"simtime.chan_ns_per_msg", "ns", func(div int) (int, func()) {
		msgs := iters(100000, div)
		return 2 * msgs, func() {
			e := simtime.NewEngine()
			ping := simtime.NewChan[int](e, "ping")
			pong := simtime.NewChan[int](e, "pong")
			e.Spawn("a", func(p *simtime.Proc) {
				for i := 0; i < msgs; i++ {
					ping.Put(i)
					pong.Get(p)
				}
			})
			e.Spawn("b", func(p *simtime.Proc) {
				for i := 0; i < msgs; i++ {
					pong.Put(ping.Get(p))
				}
			})
			if err := e.Run(); err != nil {
				panic(err)
			}
		}
	}},
	{"resource.reserve_ns_op", "ns", func(div int) (int, func()) {
		n := iters(2000000, div)
		path := resource.NewPath(resource.NewLink("membus", 1e10, 1e-7),
			resource.NewLink("nic", 1e9, 1e-6), resource.NewLink("bisection", 1e10, 1e-6))
		return n, func() {
			now := 0.0
			for i := 0; i < n; i++ {
				now = path.Reserve(now, 1<<16)
			}
			microSink = now
		}
	}},
	{"mpi.barrier_ns_per_rank", "ns", func(div int) (int, func()) {
		const ranks = 120
		rounds := iters(1000, div)
		return ranks * rounds, microWorld(ranks, func(c *mpi.Comm) {
			for r := 0; r < rounds; r++ {
				c.Barrier()
			}
		})
	}},
	{"mpi.allgather_ns_per_pair", "ns", func(div int) (int, func()) {
		ranks := sized(360, div)
		rounds := iters(2, div)
		return ranks * ranks * rounds, microWorld(ranks, func(c *mpi.Comm) {
			for r := 0; r < rounds; r++ {
				c.Allgather(c.Rank(), 8)
			}
		})
	}},
	{"mpi.alltoall_sparse_ns_per_msg", "ns", func(div int) (int, func()) {
		// Every rank sends to 8 partners and expects the mirrored 8, the
		// shape of a collio shuffle round.
		const ranks, partners = 120, 8
		rounds := iters(100, div)
		return ranks * partners * rounds, microWorld(ranks, func(c *mpi.Comm) {
			out := make([]any, ranks)
			vals := make([]any, ranks)
			sizes := make([]int64, ranks)
			present := make([]bool, ranks)
			for k := 1; k <= partners; k++ {
				dst := (c.Rank() + k*13) % ranks
				vals[dst], sizes[dst] = k, 1<<16
				present[(c.Rank()-k*13%ranks+ranks)%ranks] = true
			}
			for r := 0; r < rounds; r++ {
				c.AlltoallSparseInto(out, vals, sizes, present)
			}
		})
	}},
	{"mpi.bcast_ns_per_rank", "ns", func(div int) (int, func()) {
		ranks := sized(360, div)
		rounds := iters(100, div)
		return ranks * rounds, microWorld(ranks, func(c *mpi.Comm) {
			for r := 0; r < rounds; r++ {
				c.Bcast(0, r, 64)
			}
		})
	}},
	{"pfs.writevec_ns_per_req", "ns", func(div int) (int, func()) { return microVec(div, false) }},
	{"pfs.readvec_ns_per_req", "ns", func(div int) (int, func()) { return microVec(div, true) }},
	{"datatype.normalize_ns_per_seg", "ns", func(div int) (int, func()) {
		// 4096 segments in a scattered order with every fourth pair
		// adjacent, so the sort and the merge both work.
		const segs = 4096
		reps := iters(100, div)
		in := make([]datatype.Segment, segs)
		for i := range in {
			j := int64(i*1237) % segs
			in[i] = datatype.Segment{Off: j * 2048, Len: 1024 + 1024*(j%4/3)}
		}
		return segs * reps, func() {
			for i := 0; i < reps; i++ {
				microSink += float64(len(datatype.Normalize(in)))
			}
		}
	}},
	{"datatype.clip_ns_op", "ns", func(div int) (int, func()) {
		n := iters(200000, div)
		l := microView(256)
		return n, func() {
			for i := 0; i < n; i++ {
				lo := int64(i%128) * 1024
				microSink += float64(len(l.Clip(lo, lo+64<<10)))
			}
		}
	}},
	{"datatype.arena_clip_ns_op", "ns", func(div int) (int, func()) {
		n := iters(1000000, div)
		l := microView(256)
		return n, func() {
			var a datatype.Arena
			for i := 0; i < n; i++ {
				lo := int64(i%128) * 1024
				microSink += float64(len(a.Clip(l, lo, lo+64<<10)))
				a.Reset()
			}
		}
	}},
	{"core.inspect_us.120", "us", microInspect(120, 400)},
	{"core.inspect_us.1080", "us", microInspect(1080, 60)},
	{"core.inspect_us.9600", "us", microInspect(9600, 4)},
	{"core.buildtree_us.1080", "us", func(div int) (int, func()) {
		l := newMicroLayout(sized(1080, div))
		n := iters(2000, div)
		return n, func() {
			for i := 0; i < n; i++ {
				microSink += float64(len(core.BuildTree(l.cover, l.opts.Msgind, 90*l.opts.Nah).Leaves()))
			}
		}
	}},
	{"core.dividegroups_us.1080", "us", func(div int) (int, func()) {
		l := newMicroLayout(sized(1080, div))
		n := iters(5000, div)
		return n, func() {
			for i := 0; i < n; i++ {
				microSink += float64(len(core.DivideGroups(l.machine.NodeOfRank, l.bytes, l.opts.Msggroup)))
			}
		}
	}},
	{"twolayer.elect_us.1080", "us", func(div int) (int, func()) {
		l := newMicroLayout(sized(1080, div))
		n := iters(500, div)
		return n, func() {
			for i := 0; i < n; i++ {
				microSink += float64(len(twolayer.Elect(l.nodeOf, l.avail, l.span).Leaders))
			}
		}
	}},
	{"collio.planfrommeta_us.1080", "us", func(div int) (int, func()) {
		l := newMicroLayout(sized(1080, div))
		n := iters(5000, div)
		return n, func() {
			for i := 0; i < n; i++ {
				microSink += float64(len(collio.TwoPhase{CBBuffer: 4 * cluster.MiB}.PlanFromMeta(l.exts, l.nodeOf, l.avail).Domains))
			}
		}
	}},
	{"cluster.new_us.90", "us", func(div int) (int, func()) {
		n := iters(2000, div)
		cfg := simMachine(90, 12, 4*cluster.MiB)
		return n, func() {
			for i := 0; i < n; i++ {
				m, err := cluster.New(cfg)
				if err != nil {
					panic(err)
				}
				microSink += float64(m.NumNodes())
			}
		}
	}},
	{"workload.view_ns_per_rank", "ns", func(div int) (int, func()) {
		const ranks = 1080
		reps := iters(200, div)
		wl := workload.IOR{Ranks: ranks, BlockSize: 64 << 10, Segments: 8}
		return ranks * reps, func() {
			for i := 0; i < reps; i++ {
				for r := 0; r < ranks; r++ {
					microSink += float64(len(wl.View(r)))
				}
			}
		}
	}},
	{"ring.owner_ns_op", "ns", func(div int) (int, func()) {
		n := iters(500000, div)
		r := ring.New([]string{"a", "b", "c"}, 0)
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("fingerprint-%04d", i)
		}
		return n, func() {
			for i := 0; i < n; i++ {
				microSink += float64(len(r.Owner(keys[i%len(keys)])))
			}
		}
	}},
	{"ring.new_us", "us", func(div int) (int, func()) {
		n := iters(500, div)
		members := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		return n, func() {
			for i := 0; i < n; i++ {
				microSink += float64(ring.New(members, 0).Len())
			}
		}
	}},
	{"sweep.pool_submit_ns_op", "ns", func(div int) (int, func()) {
		// Batches of 32 trivial jobs, each batch waited for: admission,
		// hand-off to a worker and slot release per job.
		const batch = 32
		reps := iters(3000, div)
		return batch * reps, func() {
			pool := sweep.NewPool(2, 64)
			var wg sync.WaitGroup
			for i := 0; i < reps; i++ {
				wg.Add(batch)
				for j := 0; j < batch; j++ {
					if !pool.TrySubmit(wg.Done) {
						panic("sweep: pool refused a job below its backlog")
					}
				}
				wg.Wait()
			}
			if err := pool.Drain(context.Background()); err != nil {
				panic(err)
			}
		}
	}},
}

// microView is a fragmented view like an interleaved workload's: many
// small segments with holes between them.
func microView(n int) datatype.List {
	l := make(datatype.List, n)
	for i := range l {
		l[i] = datatype.Segment{Off: int64(i) * 2048, Len: 1024}
	}
	return l
}
