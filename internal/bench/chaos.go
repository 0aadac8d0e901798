package bench

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/iolib"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ChaosDropRates are the message-drop probabilities the chaos
// experiment sweeps on top of the fixed fault backdrop.
var ChaosDropRates = []float64{0.02, 0.05, 0.10, 0.20}

// chaosSpec builds the experiment's fault schedule: every fault class
// at once — a memory-pressure spike that drains an aggregator node, a
// straggler OST, a degraded link, an aggregator-node failure mid-run,
// and message drop/delay at the given rate. The spec is a pure value,
// so every sweep point perturbs the same backdrop and only the drop
// rate moves.
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

// Chaos sweeps fault intensity against delivered bandwidth: a
// fault-free baseline, then the full chaos backdrop at each
// ChaosDropRates point, for both strategies on the write path. Every
// run verifies its bytes (write + verified read-back), so a row in the
// table certifies the collective survived its faults without data
// loss. Rows fan out across o.Parallel workers, each with its own
// fault schedule and metrics registry; reg, when non-nil, absorbs the
// merged fault and failover counters for /metrics exposition.
func Chaos(o Options, reg *metrics.Registry) (*Table, error) {
	o = o.withDefaults()
	mem := 4 * cluster.MiB
	wl := iorWorkload(24, o.Scale)
	fcfg := TestbedFS(o.Seed)
	mcfg := TestbedMachine(2, mem, SigmaBytes, o.Seed)
	mccOpts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
	strategies := []iolib.Collective{
		collio.TwoPhase{CBBuffer: mem},
		core.MCCIO{Opts: mccOpts},
	}

	tbl := &Table{
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

	// One grid row per (rate, strategy). Each row builds its own fault
	// schedule inside the worker (exactly-once state lives in the
	// schedule) and gets its own metrics registry, so concurrent rows
	// share nothing; the fault-free baseline relation is computed after
	// the sweep from the slot-per-row results.
	rates := append([]float64{0}, ChaosDropRates...)
	type chaosRow struct {
		rate float64
		s    iolib.Collective
		reg  *metrics.Registry
	}
	type chaosOut struct {
		res                   trace.Result
		inj, fo, unrec, drops int64
	}
	var grid []chaosRow
	for _, rate := range rates {
		for _, s := range strategies {
			row := chaosRow{rate: rate, s: s}
			if reg != nil {
				row.reg = metrics.New()
			}
			grid = append(grid, row)
		}
	}
	runner := sweep.Sweep[chaosOut]{
		Workers:  o.Parallel,
		Progress: o.Progress,
		Label:    "chaos",
		Describe: func(i int, out chaosOut) string {
			return fmt.Sprintf("rate=%.2f %s: %s (injected=%d failovers=%d)",
				grid[i].rate, grid[i].s.Name(), out.res.String(), out.inj, out.fo)
		},
	}
	outs, err := runner.Run(context.Background(), len(grid), func(_ context.Context, i int) (chaosOut, error) {
		row := grid[i]
		var sched *faults.Schedule
		if row.rate > 0 {
			var err error
			sched, err = faults.NewSchedule(chaosSpec(o.Seed, mem, row.rate))
			if err != nil {
				return chaosOut{}, fmt.Errorf("chaos spec: %w", err)
			}
		}
		res, err := RunOnce(Spec{
			Strategy: row.s, Op: "write", Machine: mcfg, FS: fcfg,
			Workload: wl, Verify: true, Metrics: row.reg, Faults: sched,
		})
		if err != nil {
			return chaosOut{}, fmt.Errorf("chaos rate=%.2f %s: %w", row.rate, row.s.Name(), err)
		}
		out := chaosOut{res: res}
		if sched != nil {
			out.inj, out.fo, out.unrec, out.drops = sched.Injected(), sched.Failovers(), sched.Unrecovered(), sched.Dropped()
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if reg != nil {
		snaps := make([]metrics.Snapshot, 0, len(grid))
		for _, row := range grid {
			snaps = append(snaps, row.reg.Snapshot())
		}
		reg.Absorb(metrics.MergeSnapshots(snaps...))
	}
	baseline := make(map[string]float64)
	for i, row := range grid {
		if row.rate == 0 {
			baseline[row.s.Name()] = outs[i].res.BandwidthMBps()
		}
	}
	for i, row := range grid {
		out := outs[i]
		bw := out.res.BandwidthMBps()
		rel := "1.00x"
		if base := baseline[row.s.Name()]; base > 0 && row.rate > 0 {
			rel = fmt.Sprintf("%.2fx", bw/base)
		}
		tbl.AddRow(fmt.Sprintf("%.2f", row.rate), row.s.Name(), fmt.Sprintf("%.1f", bw), rel,
			fmt.Sprintf("%d", out.inj), fmt.Sprintf("%d", out.fo),
			fmt.Sprintf("%d", out.unrec), fmt.Sprintf("%d", out.drops))
	}
	return tbl, nil
}
