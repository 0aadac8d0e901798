package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/adio"
	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/iolib"
	"repro/internal/pfs"
	"repro/internal/trace"
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
	// Explain, when non-nil, collects the decision audit of experiments
	// that support it (currently the regression bench): each row runs
	// with its own hermetic recorder and the per-row logs are folded in
	// row order, so the merged audit is byte-identical at any Parallel.
	Explain *explain.Recorder
	// HostMetrics records each run's host-side cost — wall-clock
	// nanoseconds and heap allocations — into the trajectory rows of the
	// experiments that persist one (regression, sweep). Recording forces
	// the sweep serial whatever Parallel says: the Go runtime's
	// allocation counter is process-global, so concurrent rows would
	// bleed into each other's counts. The simulated columns remain
	// byte-identical; only the two host_* columns are added, and the
	// deterministic regression gate (CompareBench) never reads them —
	// they are gated separately, with tolerance bands, by CompareHost.
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

// MemSweep is the aggregation-buffer sweep of Figures 6–8: 2–128 MB.
var MemSweep = []int64{
	2 * cluster.MiB, 4 * cluster.MiB, 8 * cluster.MiB, 16 * cluster.MiB,
	32 * cluster.MiB, 64 * cluster.MiB, 128 * cluster.MiB,
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

// SweepPoint is one memory size's four measurements.
type SweepPoint struct {
	Mem                                    int64
	BaseWrite, MccWrite, BaseRead, MccRead trace.Result
}

// comparisonSweep runs baseline and MCCIO, write and read, across the
// memory sweep on a fixed workload.
func comparisonSweep(title string, wl workload.Workload, nodes int, o Options) (*Table, []SweepPoint, error) {
	o = o.withDefaults()
	t := &Table{
		Title: title,
		Headers: []string{"mem/agg", "two-phase wr MB/s", "mccio wr MB/s", "wr gain",
			"two-phase rd MB/s", "mccio rd MB/s", "rd gain"},
	}
	fcfg := TestbedFS(o.Seed)
	// Build the whole grid up front — every row is a hermetic Spec —
	// then fan it out through the sweep pool. Both strategies run on
	// the SAME machine: per-node aggregation memory is normal around
	// the nominal buffer size (the paper's σ=50 setup). The baseline
	// asks for a fixed buffer everywhere and is capped by what
	// physically exists; MCCIO places around the variance.
	var rows []specRow
	for _, mem := range MemSweep {
		mccCfg := TestbedMachine(nodes, mem, SigmaBytes, o.Seed)
		mccOpts := MCCIOOptions(mccCfg, fcfg, wl.TotalBytes(), mem)
		for _, r := range []struct {
			s  iolib.Collective
			op string
		}{
			{collio.TwoPhase{CBBuffer: mem}, "write"},
			{core.MCCIO{Opts: mccOpts}, "write"},
			{collio.TwoPhase{CBBuffer: mem}, "read"},
			{core.MCCIO{Opts: mccOpts}, "read"},
		} {
			rows = append(rows, specRow{
				key:  fmt.Sprintf("%s %s at %s", r.s.Name(), r.op, mb(mem)),
				spec: Spec{Strategy: r.s, Op: r.op, Machine: mccCfg, FS: fcfg, Workload: wl},
			})
		}
	}
	results, _, err := runSpecs(o, title, rows)
	if err != nil {
		return nil, nil, err
	}
	var points []SweepPoint
	for mi, mem := range MemSweep {
		pt := SweepPoint{
			Mem:       mem,
			BaseWrite: results[mi*4],
			MccWrite:  results[mi*4+1],
			BaseRead:  results[mi*4+2],
			MccRead:   results[mi*4+3],
		}
		points = append(points, pt)
		t.AddRow(mb(mem),
			fmt.Sprintf("%.1f", pt.BaseWrite.BandwidthMBps()),
			fmt.Sprintf("%.1f", pt.MccWrite.BandwidthMBps()),
			pct(pt.MccWrite.BandwidthMBps(), pt.BaseWrite.BandwidthMBps()),
			fmt.Sprintf("%.1f", pt.BaseRead.BandwidthMBps()),
			fmt.Sprintf("%.1f", pt.MccRead.BandwidthMBps()),
			pct(pt.MccRead.BandwidthMBps(), pt.BaseRead.BandwidthMBps()),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %s, %.2f GB total", wl.Name(), float64(wl.TotalBytes())/1e9),
		fmt.Sprintf("memory variance for mccio platform: sigma=%d MB (paper: 50)", SigmaBytes/cluster.MB),
	)
	avgGain := func(get func(SweepPoint) (float64, float64)) float64 {
		var sum float64
		for _, p := range points {
			m, b := get(p)
			if b > 0 {
				sum += (m/b - 1) * 100
			}
		}
		return sum / float64(len(points))
	}
	wr := avgGain(func(p SweepPoint) (float64, float64) {
		return p.MccWrite.BandwidthMBps(), p.BaseWrite.BandwidthMBps()
	})
	rd := avgGain(func(p SweepPoint) (float64, float64) {
		return p.MccRead.BandwidthMBps(), p.BaseRead.BandwidthMBps()
	})
	t.Notes = append(t.Notes, fmt.Sprintf("average improvement: write %+.1f%%, read %+.1f%%", wr, rd))
	return t, points, nil
}

// Fig6CollPerf regenerates Figure 6: coll_perf (3-D block array) at 120
// processes, write and read bandwidth vs aggregation memory. Paper:
// mccio averaged +34.2% write, +22.9% read.
func Fig6CollPerf(o Options) (*Table, []SweepPoint, error) {
	o = o.withDefaults()
	dim := scaledDim(1024, o.Scale)
	wl := workload.CollPerf3D{
		Dims:  [3]int64{dim, dim, dim},
		Procs: workload.Grid3(120),
		Elem:  4,
	}
	t, pts, err := comparisonSweep("Figure 6: coll_perf, 120 processes (10 nodes x 12)", wl, 10, o)
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("array %d^3 x 4B = %.2f GB (paper: 2048^3 = 32 GB; scaled for simulation)", dim, float64(wl.TotalBytes())/1e9),
		"paper reference: avg +34.2% write, +22.9% read")
	return t, pts, nil
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

// Fig7IOR120 regenerates Figure 7: IOR interleaved at 120 processes.
// Paper: write gains +40.3%..+121.7% (best at 16 MB), read +64.6%..
// +97.4% (best at 8 MB); averages +81.2% write, +82.4% read.
func Fig7IOR120(o Options) (*Table, []SweepPoint, error) {
	o = o.withDefaults()
	wl := iorWorkload(120, o.Scale)
	t, pts, err := comparisonSweep("Figure 7: IOR interleaved, 120 processes (10 nodes x 12)", wl, 10, o)
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes, "paper reference: avg +81.2% write, +82.4% read; best write at 16MB, best read at 8MB")
	return t, pts, nil
}

// Fig8IOR1080 regenerates Figure 8: IOR interleaved at 1080 processes.
// Paper: baseline write falls 1631.91 -> 396.36 MB/s (128 -> 2 MB) and
// read 2047.05 -> 861.62; mccio averages +24.3% write, +57.8% read.
func Fig8IOR1080(o Options) (*Table, []SweepPoint, error) {
	o = o.withDefaults()
	wl := iorWorkload(1080, o.Scale)
	t, pts, err := comparisonSweep("Figure 8: IOR interleaved, 1080 processes (90 nodes x 12)", wl, 90, o)
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes, "paper reference: baseline write 1631.91->396.36 MB/s, read 2047.05->861.62 MB/s; avg gains +24.3% write, +57.8% read")
	return t, pts, nil
}
