package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/iolib"
	"repro/internal/strategy"
	"repro/internal/twolayer"
)

// Ablation isolates each MCCIO mechanism on the Figure-7 workload at a
// fixed 8 MB nominal buffer (the paper's most sensitive point): full
// MCCIO, then each component disabled in turn, plus the two-phase
// baseline, for write and read.
func Ablation(o Options) (*Table, error) {
	o = o.withDefaults()
	const nodes = 10
	const mem = 8 * cluster.MiB
	wl := iorWorkload(120, o.Scale)
	fcfg := TestbedFS(o.Seed)
	mccCfg := TestbedMachine(nodes, mem, SigmaBytes, o.Seed)
	full := MCCIOOptions(mccCfg, fcfg, wl.TotalBytes(), mem)

	variant := func(name string, mutate func(*core.Options)) (string, iolib.Collective, cluster.Config) {
		opts := full
		if mutate != nil {
			mutate(&opts)
		}
		return name, core.MCCIO{Opts: opts}, mccCfg
	}

	type entry struct {
		name string
		s    iolib.Collective
		mcfg cluster.Config
	}
	var entries []entry
	add := func(name string, s iolib.Collective, mcfg cluster.Config) {
		entries = append(entries, entry{name, s, mcfg})
	}
	add(variant("mccio (full)", nil))
	add(variant("+ two-layer exchange", func(op *core.Options) { op.TwoLayer = true }))
	add(variant("no group division", func(op *core.Options) { op.DisableGroups = true }))
	add(variant("no memory-aware placement", func(op *core.Options) { op.DisableMemAware = true }))
	add(variant("no remerging", func(op *core.Options) { op.DisableRemerge = true }))
	add(variant("Nah=1 (one aggregator/node)", func(op *core.Options) { op.Nah = 1 }))
	// Same varied machine for the comparators: the baseline's fixed
	// buffer is capped by what physically exists on each node.
	add("two-phase baseline", collio.TwoPhase{CBBuffer: mem}, mccCfg)
	add("two-layer baseline", twolayer.Strategy{CBBuffer: mem}, mccCfg)
	add("independent I/O", iolib.Naive{Opts: iolib.DefaultSieve()}, mccCfg)

	t := &Table{
		Title:   "Ablation: MCCIO mechanisms on IOR 120 procs, 8MB nominal buffer",
		Headers: []string{"variant", "write MB/s", "read MB/s", "rounds(w)", "aggs(w)", "groups(w)", "inter-shuffle MB(w)"},
	}
	var rows []specRow
	for _, e := range entries {
		for _, op := range []string{"write", "read"} {
			rows = append(rows, specRow{
				key:  fmt.Sprintf("ablation %s %s", e.name, op),
				spec: Spec{Strategy: e.s, Op: op, Machine: e.mcfg, FS: fcfg, Workload: wl},
			})
		}
	}
	results, _, err := runSpecs(o, "ablation", rows)
	if err != nil {
		return nil, err
	}
	for ei, e := range entries {
		wres, rres := results[ei*2], results[ei*2+1]
		t.AddRow(e.name,
			fmt.Sprintf("%.1f", wres.BandwidthMBps()),
			fmt.Sprintf("%.1f", rres.BandwidthMBps()),
			fmt.Sprintf("%d", wres.Rounds),
			fmt.Sprintf("%d", wres.Aggregators),
			fmt.Sprintf("%d", wres.Groups),
			fmt.Sprintf("%.1f", float64(wres.BytesShuffleInter)/1e6),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %s", wl.Name()),
		"independent I/O is competitive on THIS pattern because its blocks are large (4MB at scale 1) and stripe-aligned;",
		"shrink the blocks (examples/ior) and it collapses — the regime collective I/O exists for")
	return t, nil
}

// MemoryPressure reports the memory-consumption side of the paper's
// claim: per-aggregator buffer mean and coefficient of variation, and
// per-node ledger high-water marks, for baseline vs MCCIO at a small
// buffer under variance.
func MemoryPressure(o Options) (*Table, error) {
	o = o.withDefaults()
	const nodes = 10
	const mem = 8 * cluster.MiB
	wl := iorWorkload(120, o.Scale)
	fcfg := TestbedFS(o.Seed)
	mccCfg := TestbedMachine(nodes, mem, SigmaBytes, o.Seed)
	baseCfg := TestbedMachine(nodes, mem, SigmaBytes, o.Seed) // same varied machine: fairness
	t := &Table{
		Title:   "Aggregator memory consumption under variance (IOR 120 procs, 8MB nominal)",
		Headers: []string{"strategy", "aggs", "mean buf MB", "cv", "max buf MB", "remerges"},
	}
	entries := []struct {
		name string
		cfg  cluster.Config
	}{
		{strategy.TwoPhase, baseCfg},
		{strategy.MCCIO, mccCfg},
	}
	var rows []specRow
	for _, e := range entries {
		s := collective(e.name, MCCIOOptions(mccCfg, fcfg, wl.TotalBytes(), mem), mem)
		rows = append(rows, specRow{
			key:  "memory " + e.name,
			spec: Spec{Strategy: s, Op: "write", Machine: e.cfg, FS: fcfg, Workload: wl},
		})
	}
	results, _, err := runSpecs(o, "memory", rows)
	if err != nil {
		return nil, err
	}
	for ei, e := range entries {
		res := results[ei]
		s := res.AggBufferStats()
		cv := 0.0
		if s.Mean > 0 {
			cv = s.Std / s.Mean
		}
		t.AddRow(e.name,
			fmt.Sprintf("%d", res.Aggregators),
			fmt.Sprintf("%.2f", s.Mean/1e6),
			fmt.Sprintf("%.3f", cv),
			fmt.Sprintf("%.2f", s.Max/1e6),
			fmt.Sprintf("%d", res.Remerges),
		)
	}
	return t, nil
}
