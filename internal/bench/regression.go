package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/iolib"
	"repro/internal/metrics"
)

// RegressionMems are the memory points of the fixed-seed regression
// bench: one scarce and one comfortable aggregation budget (bytes).
var RegressionMems = []int64{4 * cluster.MiB, 16 * cluster.MiB}

// RunRegression runs the small fixed-seed bench that gates CI: IOR
// interleaved at 24 processes on 2 nodes x 12 cores, both strategies
// and both operations at each RegressionMems point — 8 rows in a few
// seconds. The rows fan out across o.Parallel workers; each run gets
// its own metrics registry and the per-run snapshots are merged in row
// order into the trajectory's combined snapshot, so the output is
// byte-identical whatever the worker count. reg, when non-nil, absorbs
// that merged snapshot so a live /metrics exposition sees the sweep's
// aggregate counters.
//
// The simulation runs on virtual time with seeded randomness, so for a
// given (scale, seed) the returned numbers are bit-identical on every
// host — which is what lets a checked-in BenchFile act as the baseline.
func RunRegression(o Options, reg *metrics.Registry) (*BenchFile, error) {
	o = o.withDefaults()
	out := &BenchFile{Schema: BenchSchemaVersion, Scale: o.Scale, Seed: o.Seed}
	rows := regressionRows(o)
	// One registry per row: concurrent runs never share atomic cells,
	// and merging the snapshots in row order reproduces exactly what a
	// single registry fed by a serial sweep would hold.
	var regs []*metrics.Registry
	if reg != nil {
		regs = make([]*metrics.Registry, len(rows))
		for i := range regs {
			regs[i] = metrics.New()
			rows[i].spec.Metrics = regs[i]
		}
	}
	// Same discipline for the decision audit: each row records into its
	// own recorder (opened with a run marker carrying the row key), and
	// the logs are concatenated in row order afterwards — byte-identical
	// output whatever o.Parallel is.
	var recs []*explain.Recorder
	if o.Explain != nil {
		recs = make([]*explain.Recorder, len(rows))
		for i := range recs {
			recs[i] = explain.NewRecorder()
			recs[i].Run(rows[i].key)
			rows[i].spec.Explain = recs[i]
		}
	}
	results, hosts, err := runSpecs(o, "regression", rows)
	if err != nil {
		return nil, fmt.Errorf("bench: regression: %w", err)
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
	for _, r := range recs {
		o.Explain.Append(r.Events())
	}
	return out, nil
}

// regressionRows is the regression bench's grid at o's scale and seed.
func regressionRows(o Options) []specRow {
	wl := iorWorkload(24, o.Scale)
	fcfg := TestbedFS(o.Seed)
	var rows []specRow
	for _, mem := range RegressionMems {
		mcfg := TestbedMachine(2, mem, SigmaBytes, o.Seed)
		mccOpts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)
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
				key:  fmt.Sprintf("mem=%s/%s/%s", mb(mem), r.s.Name(), r.op),
				spec: Spec{Strategy: r.s, Op: r.op, Machine: mcfg, FS: fcfg, Workload: wl},
			})
		}
	}
	return rows
}
