package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

// SweepMems are the aggregation-memory points (bytes) of the sharded
// grid sweep: the scarce half of the paper's 2–128 MB axis, where the
// strategies actually separate.
var SweepMems = []int64{2 * cluster.MiB, 4 * cluster.MiB, 8 * cluster.MiB, 16 * cluster.MiB}

// SweepVariants is how many seed variants the grid sweep runs per
// (memory, strategy, op) cell. Each variant perturbs the platform —
// memory variance and storage jitter — through its own derived seed,
// so a cell's rows sample the paper's σ=50 distribution instead of one
// draw from it.
const SweepVariants = 3

// RunSweep runs the sharded parameter grid: SweepMems × both
// strategies × {write, read} × SweepVariants seed variants — 48
// hermetic rows on the 24-process IOR interleaved workload — fanned
// across o.Parallel workers. Row i's platform seed is
// sweep.Seed(o.Seed, i), so every row's randomness is fixed by
// (sweep seed, row index) alone: a worker never consumes another
// row's random draws, and the returned BenchFile is byte-identical at
// any worker count. Per-run metrics registries are merged in row
// order into the file's combined snapshot; reg, when non-nil, absorbs
// the merge for live /metrics exposition.
func RunSweep(o Options, reg *metrics.Registry) (*BenchFile, error) {
	o = o.withDefaults()
	out := &BenchFile{Schema: BenchSchemaVersion, Scale: o.Scale, Seed: o.Seed}
	wl := iorWorkload(24, o.Scale)
	var rows []specRow
	for _, mem := range SweepMems {
		for _, strat := range []string{strategy.TwoPhase, strategy.MCCIO} {
			for _, op := range []string{"write", "read"} {
				for v := 0; v < SweepVariants; v++ {
					seed := sweep.Seed(o.Seed, len(rows))
					fcfg := TestbedFS(seed)
					mcfg := TestbedMachine(2, mem, SigmaBytes, seed)
					s := collective(strat, MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem), mem)
					rows = append(rows, specRow{
						key:  fmt.Sprintf("mem=%s/%s/%s/v%d", mb(mem), strat, op, v),
						spec: Spec{Strategy: s, Op: op, Machine: mcfg, FS: fcfg, Workload: wl},
					})
				}
			}
		}
	}
	var regs []*metrics.Registry
	if reg != nil {
		regs = make([]*metrics.Registry, len(rows))
		for i := range regs {
			regs[i] = metrics.New()
			rows[i].spec.Metrics = regs[i]
		}
	}
	results, hosts, err := runSpecs(o, "sweep", rows)
	if err != nil {
		return nil, fmt.Errorf("bench: sweep: %w", err)
	}
	for i, res := range results {
		row := RowFromResult(rows[i].key, res)
		if hosts != nil {
			row.HostNsOp = hosts[i].WallNs
			row.HostAllocsOp = hosts[i].Allocs
		}
		out.Experiments = append(out.Experiments, row)
	}
	if reg != nil {
		snaps := make([]metrics.Snapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		merged := metrics.MergeSnapshots(snaps...)
		out.Metrics = &merged
		reg.Absorb(merged)
	}
	return out, nil
}
