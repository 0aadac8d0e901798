package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/workload"
)

// Exascale is the extrapolation experiment the paper's title implies
// but its testbed could not run: hold the per-rank workload and the
// (scarce, varied) per-node memory fixed and grow the machine, so the
// data volume scales with concurrency while aggregation memory per
// byte of data stays flat — the projected extreme-scale regime of
// Table 1. The question is whether MCCIO's advantage survives scale-up.
func Exascale(o Options) (*Table, error) {
	o = o.withDefaults()
	const mem = 8 * cluster.MiB
	fcfg := TestbedFS(o.Seed)
	t := &Table{
		Title: "Extreme-scale extrapolation: IOR, fixed 8MB/node memory, growing machine",
		Headers: []string{"nodes", "ranks", "data GB",
			"two-phase wr MB/s", "mccio wr MB/s", "wr gain",
			"two-phase rd MB/s", "mccio rd MB/s", "rd gain"},
	}
	nodeCounts := []int{10, 20, 40, 90}
	var rows []specRow
	workloads := make([]workload.Workload, len(nodeCounts))
	for ni, nodes := range nodeCounts {
		ranks := nodes * 12
		wl := iorWorkload(ranks, o.Scale*0.5) // half Fig-7 volume per rank for tractable sweeps
		workloads[ni] = wl
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
				key:  fmt.Sprintf("nodes=%d %s %s", nodes, r.s.Name(), r.op),
				spec: Spec{Strategy: r.s, Op: r.op, Machine: mccCfg, FS: fcfg, Workload: wl},
			})
		}
	}
	results, _, err := runSpecs(o, "exascale", rows)
	if err != nil {
		return nil, fmt.Errorf("exascale: %w", err)
	}
	for ni, nodes := range nodeCounts {
		bw, bm, rw, rm := results[ni*4], results[ni*4+1], results[ni*4+2], results[ni*4+3]
		t.AddRow(
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%d", nodes*12),
			fmt.Sprintf("%.2f", float64(workloads[ni].TotalBytes())/1e9),
			fmt.Sprintf("%.1f", bw.BandwidthMBps()),
			fmt.Sprintf("%.1f", bm.BandwidthMBps()),
			pct(bm.BandwidthMBps(), bw.BandwidthMBps()),
			fmt.Sprintf("%.1f", rw.BandwidthMBps()),
			fmt.Sprintf("%.1f", rm.BandwidthMBps()),
			pct(rm.BandwidthMBps(), rw.BandwidthMBps()),
		)
	}
	t.Notes = append(t.Notes,
		"per-rank data and per-node memory fixed; machine (and storage contention) grows",
		"the paper's claim: memory-conscious aggregation is what scales into this regime")
	return t, nil
}
