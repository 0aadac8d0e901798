package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/adio"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Options steer an experiment run.
type Options struct {
	// Scale multiplies per-rank data volume (dimensionless factor); 1.0
	// is this repo's default experiment size (see EXPERIMENTS.md for
	// the mapping to the paper's sizes). Smaller is faster.
	Scale float64
	// Seed drives memory-variance sampling and storage jitter.
	Seed uint64
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Parallel is how many simulation runs an experiment executes
	// concurrently through internal/sweep. 0 means GOMAXPROCS; 1
	// recovers strictly serial execution. Results are byte-identical
	// for every value: each run is hermetic (its own engine, machine,
	// file system, and sinks) and results land slot-per-row.
	Parallel int
	// Explain, when non-nil, collects the decision audit of every row
	// (mccio-bench allows it on the trajectory experiments: strategies,
	// regression, sweep): each row runs with its own hermetic recorder
	// and the per-row logs are folded in row order, so the merged audit
	// is byte-identical at any Parallel.
	Explain *explain.Recorder
	// HostMetrics records each run's host-side cost — wall-clock
	// nanoseconds and heap allocations — into the trajectory rows.
	// Recording forces the sweep serial whatever Parallel says: the Go
	// runtime's allocation counter is process-global, so concurrent
	// rows would bleed into each other's counts. The simulated columns
	// remain byte-identical; only the two host_* columns are added, and
	// the deterministic regression gate (CompareBench) never reads them
	// — they are gated separately, with tolerance bands, by CompareHost.
	HostMetrics bool
}

// fill in defaults.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// SigmaBytes is the paper's memory-variance parameter: per-process
// aggregation memory is normal with σ = 50 (MB) around the nominal
// buffer size.
const SigmaBytes = 50 * cluster.MB

// paperMems is the aggregation-buffer sweep of Figures 6–8: 2–128 MB.
func paperMems() []int64 {
	return []int64{2 * cluster.MiB, 4 * cluster.MiB, 8 * cluster.MiB, 16 * cluster.MiB,
		32 * cluster.MiB, 64 * cluster.MiB, 128 * cluster.MiB}
}

// TestbedMachine builds the evaluation platform with a given per-node
// aggregation-memory budget. sigmaBytes > 0 adds the paper's normal
// variance (clipped to [floor, 2×mem]).
func TestbedMachine(nodes int, memPerNode, sigmaBytes int64, seed uint64) cluster.Config {
	cfg := cluster.TestbedConfig(nodes)
	cfg.MemPerNode = memPerNode
	if sigmaBytes > 0 {
		cfg.MemSigma = float64(sigmaBytes) / float64(memPerNode)
	}
	// A node under memory pressure still has a quarter of the nominal
	// budget; the ceiling is twice nominal (cluster clips there).
	cfg.MemFloor = memPerNode / 4
	cfg.Seed = seed
	return cfg
}

// TestbedFS builds the storage system with shared-interference jitter.
func TestbedFS(seed uint64) pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.JitterMean = 12e-3
	cfg.Seed = seed
	return cfg
}

// collective is the strategy adio.New names, for a name the grid
// spells with the strategy constants (so it cannot be unknown).
func collective(name string, opts core.Options, cb int64) iolib.Collective {
	s, err := adio.New(name, opts, cb)
	if err != nil {
		panic(err)
	}
	return s
}

// MCCIOOptions derives the strategy tunables for one sweep point, as
// §3's calibration would on this platform: Msgind/Nah from the
// machine+storage configs, Msggroup sized for groups of a few nodes,
// Memmin a quarter of the nominal buffer.
func MCCIOOptions(mcfg cluster.Config, fcfg pfs.Config, totalBytes int64, memNominal int64) core.Options {
	opts := core.DefaultOptions(mcfg, fcfg)
	groups := mcfg.Nodes / 2
	if groups < 1 {
		groups = 1
	}
	opts.Msggroup = totalBytes / int64(groups)
	opts.Memmin = memNominal / 4
	if opts.Memmin < 256<<10 {
		opts.Memmin = 256 << 10
	}
	return opts
}

// fixed is the workload rule of a grid whose rows all run wl.
func fixed(wl workload.Workload) func(cell) workload.Workload {
	return func(cell) workload.Workload { return wl }
}

// gb formats a workload's volume in GB.
func gb(wl workload.Workload) string { return fmt.Sprintf("%.2f", float64(wl.TotalBytes())/1e9) }

// comparison is the shape of Figures 6–8: baseline and MCCIO, write and
// read, across the memory sweep ms on a fixed workload. Both strategies
// run on the SAME machine: per-node aggregation memory is normal around
// the nominal buffer size (the paper's σ=50 setup). The baseline asks
// for a fixed buffer everywhere and is capped by what physically
// exists; MCCIO places around the variance. notes follow the table's
// own.
func comparison(title string, wl workload.Workload, nodes int, ms []int64, notes ...string) grid {
	return grid{
		label:    title,
		base:     cell{nodes: nodes},
		axes:     []axis{mems(ms...), ops(bothOps...), strats(baseline...)},
		workload: fixed(wl),
		key:      func(c cell) string { return fmt.Sprintf("%s %s at %s", c.strat.label, c.op, mb(c.mem)) },
		table: func(r *gridRun) *Table {
			t := &Table{
				Title: title,
				Headers: []string{"mem/agg", "two-phase wr MB/s", "mccio wr MB/s", "wr gain",
					"two-phase rd MB/s", "mccio rd MB/s", "rd gain"},
			}
			var gain [2]float64
			for _, m := range ms {
				t.AddRow(append([]string{mb(m)}, r.versus(cell{mem: m}, bothOps...)...)...)
				for k, op := range bothOps {
					if b, mc := r.pair(cell{mem: m, op: op}); b > 0 {
						gain[k] += (mc/b - 1) * 100
					}
				}
			}
			n := float64(len(ms))
			t.Notes = append(t.Notes,
				fmt.Sprintf("workload: %s, %s GB total", wl.Name(), gb(wl)),
				fmt.Sprintf("memory variance for mccio platform: sigma=%d MB (paper: 50)", SigmaBytes/cluster.MB),
				fmt.Sprintf("average improvement: write %+.1f%%, read %+.1f%%", gain[0]/n, gain[1]/n))
			t.Notes = append(t.Notes, notes...)
			return t
		},
	}
}

// fig6 regenerates Figure 6: coll_perf (3-D block array) at 120
// processes, write and read bandwidth vs aggregation memory. Paper:
// mccio averaged +34.2% write, +22.9% read.
func fig6(o Options, ms []int64) grid {
	dim := scaledDim(1024, o.Scale)
	wl := workload.CollPerf3D{
		Dims:  [3]int64{dim, dim, dim},
		Procs: workload.Grid3(120),
		Elem:  4,
	}
	return comparison("Figure 6: coll_perf, 120 processes (10 nodes x 12)", wl, 10, ms,
		fmt.Sprintf("array %d^3 x 4B = %s GB (paper: 2048^3 = 32 GB; scaled for simulation)", dim, gb(wl)),
		"paper reference: avg +34.2% write, +22.9% read")
}

// scaledDim scales a cubic dimension by the cube root of scale,
// rounded to a multiple of 8 so process grids divide evenly.
func scaledDim(base int64, scale float64) int64 {
	d := int64(float64(base) * math.Cbrt(scale))
	if d < 64 {
		d = 64
	}
	return d / 8 * 8
}

// iorWorkload builds the IOR interleaved pattern used by Figures 7–8:
// 32 MB per process (at Scale=1) in 8 interleaved segments.
func iorWorkload(ranks int, scale float64) workload.IOR {
	block := int64(float64(4*cluster.MiB) * scale)
	if block < 64<<10 {
		block = 64 << 10
	}
	return workload.IOR{Ranks: ranks, BlockSize: block, Segments: 8, TransferSize: block}
}

// fig7 regenerates Figure 7: IOR interleaved at 120 processes. Paper:
// write gains +40.3%..+121.7% (best at 16 MB), read +64.6%..+97.4%
// (best at 8 MB); averages +81.2% write, +82.4% read.
func fig7(o Options, ms []int64) grid {
	return comparison("Figure 7: IOR interleaved, 120 processes (10 nodes x 12)", iorWorkload(120, o.Scale), 10, ms,
		"paper reference: avg +81.2% write, +82.4% read; best write at 16MB, best read at 8MB")
}

// fig8 regenerates Figure 8: IOR interleaved at 1080 processes. Paper:
// baseline write falls 1631.91 -> 396.36 MB/s (128 -> 2 MB) and read
// 2047.05 -> 861.62; mccio averages +24.3% write, +57.8% read.
func fig8(o Options, ms []int64) grid {
	return comparison("Figure 8: IOR interleaved, 1080 processes (90 nodes x 12)", iorWorkload(1080, o.Scale), 90, ms,
		"paper reference: baseline write 1631.91->396.36 MB/s, read 2047.05->861.62 MB/s; avg gains +24.3% write, +57.8% read")
}

// exascale is the extrapolation the paper's title implies but its
// testbed could not run: hold the per-rank workload and the (scarce,
// varied) per-node memory fixed and grow the machine, so the data
// volume scales with concurrency while aggregation memory per byte of
// data stays flat — the projected extreme-scale regime of Table 1. The
// question is whether MCCIO's advantage survives scale-up.
func exascale(o Options) grid {
	nodes := []int{10, 20, 40, 90}
	// Half the Figure-7 volume per rank, for tractable sweeps.
	wl := func(c cell) workload.Workload { return iorWorkload(c.nodes*12, o.Scale*0.5) }
	return grid{
		label:    "exascale",
		base:     cell{mem: 8 * cluster.MiB},
		axes:     []axis{nodeCounts(nodes...), ops(bothOps...), strats(baseline...)},
		workload: wl,
		key:      func(c cell) string { return fmt.Sprintf("nodes=%d %s %s", c.nodes, c.strat.label, c.op) },
		table: func(r *gridRun) *Table {
			t := &Table{
				Title: "Extreme-scale extrapolation: IOR, fixed 8MB/node memory, growing machine",
				Headers: []string{"nodes", "ranks", "data GB",
					"two-phase wr MB/s", "mccio wr MB/s", "wr gain",
					"two-phase rd MB/s", "mccio rd MB/s", "rd gain"},
			}
			for _, n := range nodes {
				at := cell{nodes: n}
				t.AddRow(append([]string{fmt.Sprint(n), fmt.Sprint(n * 12), gb(wl(at))}, r.versus(at, bothOps...)...)...)
			}
			t.Notes = append(t.Notes,
				"per-rank data and per-node memory fixed; machine (and storage contention) grows",
				"the paper's claim: memory-conscious aggregation is what scales into this regime")
			return t
		},
	}
}

// ablation isolates each MCCIO mechanism on the Figure-7 workload at a
// fixed 8 MB nominal buffer (the paper's most sensitive point): full
// MCCIO, then each component disabled in turn, plus the two-phase
// baseline, for write and read.
func ablation(o Options) grid {
	mcc := func(label string, tune func(*core.Options)) *strat {
		return &strat{label: label, name: strategy.MCCIO, tune: tune}
	}
	variants := []*strat{
		mcc("mccio (full)", nil),
		mcc("+ two-layer exchange", func(op *core.Options) { op.TwoLayer = true }),
		mcc("no group division", func(op *core.Options) { op.DisableGroups = true }),
		mcc("no memory-aware placement", func(op *core.Options) { op.DisableMemAware = true }),
		mcc("no remerging", func(op *core.Options) { op.DisableRemerge = true }),
		mcc("Nah=1 (one aggregator/node)", func(op *core.Options) { op.Nah = 1 }),
		// Same varied machine for the comparators: the baseline's fixed
		// buffer is capped by what physically exists on each node.
		{label: "two-phase baseline", name: strategy.TwoPhase},
		{label: "two-layer baseline", name: strategy.TwoLayer},
		{label: "independent I/O", name: strategy.Independent},
	}
	wl := iorWorkload(120, o.Scale)
	return grid{
		label:    "ablation",
		base:     cell{nodes: 10, mem: 8 * cluster.MiB},
		axes:     []axis{strats(variants...), ops(bothOps...)},
		workload: fixed(wl),
		key:      func(c cell) string { return fmt.Sprintf("ablation %s %s", c.strat.label, c.op) },
		table: func(r *gridRun) *Table {
			t := &Table{
				Title:   "Ablation: MCCIO mechanisms on IOR 120 procs, 8MB nominal buffer",
				Headers: []string{"variant", "write MB/s", "read MB/s", "rounds(w)", "aggs(w)", "groups(w)", "inter-shuffle MB(w)"},
			}
			for _, v := range variants {
				w, rd := r.at(cell{strat: v, op: "write"}).res, r.at(cell{strat: v, op: "read"}).res
				t.addf("%s %.1f %.1f %d %d %d %.1f", v.label, w.BandwidthMBps(), rd.BandwidthMBps(),
					w.Rounds, w.Aggregators, w.Groups, float64(w.BytesShuffleInter)/1e6)
			}
			t.Notes = append(t.Notes,
				fmt.Sprintf("workload: %s", wl.Name()),
				"independent I/O is competitive on THIS pattern because its blocks are large (4MB at scale 1) and stripe-aligned;",
				"shrink the blocks (examples/ior) and it collapses — the regime collective I/O exists for")
			return t
		},
	}
}

// memoryPressure reports the memory-consumption side of the paper's
// claim: per-aggregator buffer mean and coefficient of variation, and
// per-node ledger high-water marks, for baseline vs MCCIO at a small
// buffer under variance, on the same varied machine (fairness).
func memoryPressure(o Options) grid {
	return grid{
		label:    "memory",
		base:     cell{nodes: 10, mem: 8 * cluster.MiB, op: "write"},
		axes:     []axis{strats(baseline...)},
		workload: fixed(iorWorkload(120, o.Scale)),
		key:      func(c cell) string { return "memory " + c.strat.label },
		table: func(r *gridRun) *Table {
			t := &Table{
				Title:   "Aggregator memory consumption under variance (IOR 120 procs, 8MB nominal)",
				Headers: []string{"strategy", "aggs", "mean buf MB", "cv", "max buf MB", "remerges"},
			}
			for _, s := range baseline {
				res := r.at(cell{strat: s}).res
				bs := res.AggBufferStats()
				cv := 0.0
				if bs.Mean > 0 {
					cv = bs.Std / bs.Mean
				}
				t.addf("%s %d %.2f %.3f %.2f %d", s.label, res.Aggregators, bs.Mean/1e6, cv, bs.Max/1e6, res.Remerges)
			}
			return t
		},
	}
}

// stripeSweep sweeps the file system's stripe unit — the layout axis
// the paper's related work (resonant I/O, LACIO) optimizes against.
// MCCIO's stripe-aligned Msg_ind means its domains stay resonant with
// the layout as the unit changes; the baseline's offset-even domains
// do not.
func stripeSweep(o Options) grid {
	units := []int64{256 << 10, 1 << 20, 4 << 20}
	wl := iorWorkload(120, o.Scale)
	return grid{
		label:    "stripes",
		base:     cell{nodes: 10, mem: 8 * cluster.MiB, op: "write"},
		axes:     []axis{stripes(units...), strats(baseline...)},
		workload: fixed(wl),
		key:      func(c cell) string { return fmt.Sprintf("stripes su=%s %s", mb(c.stripe), c.strat.label) },
		table: func(r *gridRun) *Table {
			t := &Table{
				Title:   "Stripe-unit sweep: IOR 120 procs, 8MB nominal buffer",
				Headers: []string{"stripe", "two-phase wr MB/s", "mccio wr MB/s", "gain", "fs requests (2p/mccio)"},
			}
			for _, su := range units {
				at := cell{stripe: su}
				reqs := fmt.Sprintf("%d / %d", r.at(cell{stripe: su, strat: twoPhase}).res.IORequests,
					r.at(cell{stripe: su, strat: mccio}).res.IORequests)
				t.AddRow(append(append([]string{mb(su)}, r.versus(at, "write")...), reqs)...)
			}
			t.Notes = append(t.Notes, fmt.Sprintf("workload: %s", wl.Name()))
			return t
		},
	}
}

// breakdownPhases are the top-level pipeline phases the breakdown table
// reports, in presentation order.
var breakdownPhases = []obs.Phase{
	obs.PhasePlan, obs.PhaseReqExchange, obs.PhaseBarrier, obs.PhasePack,
	obs.PhaseIntra, obs.PhaseExchange, obs.PhaseRMW, obs.PhaseAssembly,
	obs.PhaseIO,
}

// phaseBreakdown runs both strategies, write and read, with tracing
// attached and reports where the virtual time goes: per-phase seconds
// summed over all rank tracks. It is the tabular twin of the Chrome
// trace — the same spans, folded instead of plotted. Each row's own
// decision recorder feeds the anomaly scan (it needs the memory
// timeline).
func phaseBreakdown(o Options) grid {
	wl := iorWorkload(24, o.Scale)
	return grid{
		label:    "phases",
		base:     cell{nodes: 2, mem: 16 << 20},
		axes:     []axis{ops(bothOps...), strats(baseline...)},
		workload: fixed(wl),
		key:      func(c cell) string { return fmt.Sprintf("phases %s %s", c.strat.label, c.op) },
		phases:   true,
		table: func(r *gridRun) *Table {
			t := &Table{
				Title: "Phase breakdown: per-phase seconds summed over ranks (24 processes, 16MB/agg)",
				Headers: []string{"strategy", "op", "MB/s", "plan", "req-exch", "barrier", "pack",
					"intra", "exchange", "rmw", "assembly", "io"},
			}
			var warnings []string
			for _, c := range r.cells {
				out := r.at(c)
				row := []string{c.strat.label, c.op, fmt.Sprintf("%.1f", out.res.BandwidthMBps())}
				for _, p := range breakdownPhases {
					row = append(row, fmt.Sprintf("%.4f", out.sum.PhaseSeconds(p)))
				}
				t.AddRow(row...)
				for _, a := range explain.DetectAnomalies(out.sum, out.events, explain.AnomalyConfig{}) {
					warnings = append(warnings, fmt.Sprintf("warning (%s %s): %s: %s", c.strat.label, c.op, a.Kind, a.Detail))
				}
			}
			t.Notes = append(t.Notes,
				fmt.Sprintf("workload: %s, %s GB total", wl.Name(), gb(wl)),
				"seconds are summed across all rank tracks; one rank's phases tile its own timeline")
			t.Notes = append(t.Notes, warnings...)
			return t
		},
	}
}

// chaosSpec builds the chaos experiment's fault schedule: every fault
// class at once — a memory-pressure spike that drains an aggregator
// node, a straggler OST, a degraded link, an aggregator-node failure
// mid-run, and message drop/delay at the given rate. The spec is a pure
// value, so every sweep point perturbs the same backdrop and only the
// drop rate moves.
func chaosSpec(seed uint64, mem int64, dropRate float64) faults.Spec {
	return faults.Spec{
		Seed: seed,
		MemPressure: []faults.MemPressure{
			{Node: 1, Round: 1, Bytes: mem / 2},
		},
		SlowOSTs: []faults.SlowOST{
			{OST: 0, Factor: 3, FromSec: 0}, // whole run
		},
		SlowLinks: []faults.SlowLink{
			{Node: 1, Factor: 2, FromSec: 0},
		},
		NodeFailures: []faults.NodeFailure{
			{Node: 1, Round: 2},
		},
		Messages: faults.MessageSpec{
			DropRate:     dropRate,
			DelayRate:    dropRate / 2,
			DelayMeanSec: 0.5e-3,
		},
	}
}

// chaos sweeps fault intensity against delivered bandwidth: a
// fault-free baseline, then the full chaos backdrop at each drop rate,
// for both strategies on the write path. Every run verifies its bytes
// (write + verified read-back), so a row in the table certifies the
// collective survived its faults without data loss.
func chaos(o Options) grid {
	return grid{
		label:    "chaos",
		base:     cell{nodes: 2, mem: 4 * cluster.MiB, op: "write"},
		axes:     []axis{dropRates(0, 0.02, 0.05, 0.10, 0.20), strats(baseline...)},
		workload: fixed(iorWorkload(24, o.Scale)),
		key:      func(c cell) string { return fmt.Sprintf("rate=%.2f %s", c.rate, c.strat.label) },
		faults: func(c cell) *faults.Spec {
			if c.rate == 0 {
				return nil
			}
			s := chaosSpec(o.Seed, c.mem, c.rate)
			return &s
		},
		verify: true,
		table: func(r *gridRun) *Table {
			t := &Table{
				Title: "Chaos: fault rate vs bandwidth (IOR interleaved, write+verify, 24 procs, 2 nodes)",
				Headers: []string{"drop rate", "strategy", "MB/s", "vs fault-free",
					"injected", "failovers", "unrecovered", "drops"},
				Notes: []string{
					"Fault backdrop at every nonzero rate: mem-pressure spike (node 1, round 1),",
					"slow OST 0 (3x), degraded node-1 link (2x), node-1 failure at round 2,",
					"message delay at half the drop rate. Every run verifies all bytes after",
					"the collective, so each row implies zero data loss under its faults.",
				},
			}
			for _, c := range r.cells {
				out := r.at(c)
				bw := out.res.BandwidthMBps()
				rel := "1.00x"
				if base := r.at(cell{strat: c.strat}).res.BandwidthMBps(); base > 0 && c.rate > 0 {
					rel = fmt.Sprintf("%.2fx", bw/base)
				}
				t.addf("%.2f %s %.1f %s %d %d %d %d", c.rate, c.strat.label, bw, rel, out.inj, out.fo, out.unrec, out.drops)
			}
			return t
		},
	}
}
