package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/pfs"
	"repro/internal/trace"
	"repro/internal/twolayer"
	"repro/internal/workload"
)

// sigmaBytes is the paper's memory-variance parameter: per-node
// aggregation memory is normal with σ = 50 MB around the nominal buffer.
const sigmaBytes = 50 * cluster.MB

// simGrid is one simulator workload: an IOR interleaved layout on a
// testbed machine, run under every strategy × {write, read} at each
// aggregation-buffer size.
type simGrid struct {
	nodes, perNode int
	block          int64
	segments       int
	mems           []int64
	passes         int  // default timed passes
	telemetry      bool // the traced pass also measures what each simulator sink costs here
}

// lockstepGrid is sim-lockstep: few ranks, scarce buffers, so each
// collective is hundreds of rounds and the collio round loops and
// simtime parks do the work.
func lockstepGrid(smoke bool) simGrid {
	if smoke {
		return simGrid{nodes: 2, perNode: 4, block: 64 << 10, segments: 2,
			mems: []int64{64 << 10, 128 << 10}, passes: 2, telemetry: true}
	}
	return simGrid{nodes: 10, perNode: 12, block: 4 * cluster.MiB, segments: 8,
		mems: []int64{2 * cluster.MiB, 4 * cluster.MiB}, passes: 8, telemetry: true}
}

// wideGrid is sim-wide: many ranks, one or two rounds per collective,
// so the per-collective fixed cost (mpi.Allgather/Gather/Bcast/Split,
// mailbox delivery) dominates.
func wideGrid(smoke bool) simGrid {
	if smoke {
		return simGrid{nodes: 4, perNode: 4, block: 16 << 10, segments: 2,
			mems: []int64{4 * cluster.MiB}, passes: 2}
	}
	return simGrid{nodes: 30, perNode: 12, block: 256 << 10, segments: 4,
		mems: []int64{64 * cluster.MiB}, passes: 9}
}

func (g simGrid) ranks() int { return g.nodes * g.perNode }

func (g simGrid) layout() workload.IOR {
	return workload.IOR{Ranks: g.ranks(), BlockSize: g.block, Segments: g.segments, TransferSize: g.block}
}

// platformSeed draws every workload's per-node memory. It is part of
// the workload, not an input drawn from -seed: with σ many times the
// nominal buffer a node's memory is in effect a coin flip between floor
// and ceiling, and on ten nodes the flips decide how many rounds and
// remerges the mccio rows run — seeds 1..10 moved sim-lockstep's
// ops_per_s between 4.1 and 5.1 and allocs_per_op between 164k and
// 180k, several times any bound worth having. -seed drives the storage
// jitter, the key→layout mapping and the Zipf draws.
const platformSeed = 1

// simMachine is the evaluation platform at one aggregation-memory
// budget with the paper's variance.
func simMachine(nodes, perNode int, mem int64) cluster.Config {
	cfg := cluster.TestbedConfig(nodes)
	cfg.CoresPerNode = perNode
	cfg.MemPerNode = mem
	cfg.MemSigma = float64(sigmaBytes) / float64(mem)
	cfg.MemFloor = mem / 4
	cfg.Seed = platformSeed
	return cfg
}

// simFS is the storage system with shared-interference jitter.
func simFS(seed uint64) pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.JitterMean = 12e-3
	cfg.Seed = seed
	return cfg
}

// mccioOptions derives the MCCIO tunables for one grid point the way
// the paper's calibration would: Msgind/Nah from the platform, groups
// of a few nodes, Memmin a quarter of the nominal buffer.
func mccioOptions(mc cluster.Config, fc pfs.Config, totalBytes, mem int64, twoLayer bool) core.Options {
	opts := core.DefaultOptions(mc, fc)
	opts.Msggroup = totalBytes / int64(max(mc.Nodes/2, 1))
	opts.Memmin = max(mem/4, 256<<10)
	opts.TwoLayer = twoLayer
	return opts
}

// simStrategy resolves one of rowStrategies on a platform.
func simStrategy(name string, mc cluster.Config, fc pfs.Config, totalBytes, mem int64) iolib.Collective {
	switch name {
	case "two-phase":
		return collio.TwoPhase{CBBuffer: mem}
	case "two-layer":
		return twolayer.Strategy{CBBuffer: mem}
	default:
		return core.MCCIO{Opts: mccioOptions(mc, fc, totalBytes, mem, name == "mccio-2l")}
	}
}

// simRow is one row type of a grid: a (memory, strategy, op) cell.
type simRow struct {
	mem      int64
	strategy string
	op       string
	spec     bench.Spec
}

func (r simRow) key() string {
	return fmt.Sprintf("%s/%s/%dKiB", r.strategy, r.op, r.mem>>10)
}

// simRows generates a grid's rows, memory-major, from the seed alone.
func simRows(g simGrid, seed uint64) []simRow {
	wl := g.layout()
	fc := simFS(seed)
	var rows []simRow
	for _, mem := range g.mems {
		mc := simMachine(g.nodes, g.perNode, mem)
		for _, s := range rowStrategies {
			for _, op := range rowOps {
				rows = append(rows, simRow{mem: mem, strategy: s, op: op, spec: bench.Spec{
					Strategy: simStrategy(s, mc, fc, wl.TotalBytes(), mem),
					Op:       op, Machine: mc, FS: fc, Workload: wl,
				}})
			}
		}
	}
	return rows
}

// verifyRows is the functional pass of the sim set-up: every strategy
// and op on a 24-rank IOR (4 ranks at -smoke scale) with real bytes,
// checked on read-back.
func verifyRows(seed uint64, smoke bool) []simRow {
	g := simGrid{nodes: 2, perNode: 12, block: 64 << 10, segments: 4, mems: []int64{512 << 10}}
	if smoke {
		g.perNode = 2
	}
	rows := simRows(g, seed)
	for i := range rows {
		rows[i].spec.Verify = true
	}
	return rows
}

// simWorkload runs a grid strictly serially, one bench.RunOnce per row.
type simWorkload struct {
	grid  simGrid
	seed  uint64
	smoke bool
	rows  []simRow
	ref   []trace.Result // the warm-up pass's results, one per row
}

func newSimWorkload(g simGrid, seed uint64, smoke bool) *simWorkload {
	return &simWorkload{grid: g, seed: seed, smoke: smoke}
}

func (w *simWorkload) describe() string {
	g := w.grid
	return fmt.Sprintf("IOR interleaved, %d ranks (%d nodes x %d), %d KiB blocks x %d segments, %d buffer sizes x %d strategies x 2 ops = %d rows/pass, run serially",
		g.ranks(), g.nodes, g.perNode, g.block>>10, g.segments, len(g.mems), len(rowStrategies), len(g.mems)*len(rowStrategies)*2)
}

func (w *simWorkload) unit() string       { return "pass" }
func (w *simWorkload) defaultPasses() int { return w.grid.passes }
func (w *simWorkload) opsPerPass() int    { return len(w.rows) }

// setup builds the rows, replays the set-up calls RunOnce makes (so the
// traced pass can show them beside the run), runs the verified
// functional pass and then the warm-up pass whose results every timed
// row must reproduce.
func (w *simWorkload) setup() error {
	w.rows = simRows(w.grid, w.seed)
	for _, r := range verifyRows(w.seed, w.smoke) {
		res, err := bench.RunOnce(r.spec)
		if err != nil {
			return fmt.Errorf("functional pass %s: %w", r.key(), err)
		}
		if want := r.spec.Workload.TotalBytes(); res.Bytes != want {
			return fmt.Errorf("functional pass %s: moved %d bytes, want %d", r.key(), res.Bytes, want)
		}
	}
	w.ref = make([]trace.Result, len(w.rows))
	for i, r := range w.rows {
		res, err := bench.RunOnce(r.spec)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.key(), err)
		}
		if want := r.spec.Workload.TotalBytes(); res.Bytes != want {
			return fmt.Errorf("warm-up %s: moved %d bytes, want %d", r.key(), res.Bytes, want)
		}
		w.ref[i] = res
	}
	return nil
}

func (w *simWorkload) close() error { return nil }

// setupReplica calls directly what RunOnce builds before a row can run,
// under spans, so the trace shows set-up cost beside the run.
func (w *simWorkload) setupReplica(sp *spanRecorder, parent int, r simRow) {
	id := sp.begin("cluster.New", r.key(), parent)
	machine, err := cluster.New(r.spec.Machine)
	sp.end(id)
	if err != nil {
		return
	}
	id = sp.begin("pfs.New", r.key(), parent)
	_, _ = pfs.New(r.spec.FS, machine)
	sp.end(id)
	id = sp.begin("workload.View", r.key(), parent)
	for rank := 0; rank < r.spec.Workload.NumRanks(); rank++ {
		_ = r.spec.Workload.View(rank)
	}
	sp.end(id)
}

// pass runs every row once. A row fails when the simulation errors,
// when it does not reproduce the warm-up pass's result exactly (the
// simulation must not depend on host ordering), or when it moved a
// different number of bytes than the layout holds.
func (w *simWorkload) pass(idx int, sp *spanRecorder, parent int) passResult {
	out := passResult{ops: len(w.rows), lat: make([]float64, len(w.rows)), sim: make([]trace.Result, len(w.rows))}
	for i, r := range w.rows {
		id := -1
		if sp != nil {
			w.setupReplica(sp, parent, r)
			id = sp.begin("bench.RunOnce", fmt.Sprintf("%d/%s", idx, r.key()), parent)
		}
		t0 := time.Now()
		res, err := bench.RunOnce(r.spec)
		out.lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.end(id)
		out.sim[i] = res
		switch {
		case err != nil:
			out.fail(fmt.Sprintf("%s: %v", r.key(), err))
		case !reflect.DeepEqual(res, w.ref[i]):
			out.fail(fmt.Sprintf("%s: result differs from the warm-up pass: %v vs %v", r.key(), res, w.ref[i]))
		case res.Bytes != r.spec.Workload.TotalBytes():
			out.fail(fmt.Sprintf("%s: moved %d bytes, want %d", r.key(), res.Bytes, r.spec.Workload.TotalBytes()))
		}
	}
	return out
}

// latency reports the grid's end-to-end latencies: each row type's
// latency is its median over the passes; p50 is the median row type
// and p95 the 95th-percentile row type.
func (w *simWorkload) latency(passes []passResult) (p50, p95 float64, samples int) {
	lat := make([][]float64, len(passes))
	for i, p := range passes {
		lat[i] = p.lat
		samples += len(p.lat)
	}
	rows := rowTypeMedians(lat)
	return median(rows), percentile(rows, 95), samples
}

// modelGain is the paper's headline on this grid: the geometric mean
// over (memory, op) cells of simulated application bandwidth mccio ÷
// two-phase. It is exact for a given seed.
func (w *simWorkload) modelGain() float64 {
	bw := make(map[string]float64, len(w.rows))
	for i, r := range w.rows {
		bw[r.key()] = w.ref[i].BandwidthMBps()
	}
	var ratios []float64
	for _, r := range w.rows {
		if r.strategy != "mccio" {
			continue
		}
		base := bw[simRow{mem: r.mem, strategy: "two-phase", op: r.op}.key()]
		if base > 0 {
			ratios = append(ratios, bw[r.key()]/base)
		}
	}
	return geomean(ratios)
}

// layerMetrics fills the sim part of the per-layer ledger: exact work
// counts and the simulated-time split summed over one pass, the host
// cost per (round, rank), and the median host time of each loop copy at
// the scarcest memory point.
func (w *simWorkload) layerMetrics(timed []passResult, m map[string]float64) {
	m["sim.model_gain"] = w.modelGain()
	var roundRanks float64
	for _, res := range w.ref {
		m["collio.rounds"] += float64(res.Rounds)
		m["collio.aggregators"] += float64(res.Aggregators)
		m["core.groups"] += float64(res.Groups)
		m["core.remerges"] += float64(res.Remerges)
		m["twolayer.leaders"] += float64(res.Leaders)
		m["mpi.shuffle_intra_mb"] += float64(res.BytesShuffleIntra) / 1e6
		m["mpi.shuffle_inter_mb"] += float64(res.BytesShuffleInter) / 1e6
		m["pfs.io_mb"] += float64(res.BytesIO) / 1e6
		m["pfs.io_requests"] += float64(res.IORequests)
		m["collio.sim_exchange_s"] += res.ExchangeSeconds
		m["pfs.sim_io_s"] += res.IOSeconds
		m["sim.elapsed_s"] += res.Elapsed
		roundRanks += float64(res.Rounds) * float64(w.grid.ranks())
	}
	wall, _ := medianOfSlices(timed, func(p passResult) float64 { return p.wallS })
	if roundRanks > 0 {
		m["collio.host_us_per_round_rank"] = wall * 1e6 / roundRanks
	}
	lat := make([][]float64, len(timed))
	for i, p := range timed {
		lat[i] = p.lat
	}
	rows := rowTypeMedians(lat)
	for i, r := range w.rows {
		if r.mem == w.grid.mems[0] {
			m["row."+r.strategy+"."+r.op+".ms"] = rows[i]
		}
	}
}
