package bench

import (
	"context"
	"fmt"

	"repro/internal/collio"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/iolib"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// breakdownPhases are the top-level pipeline phases the breakdown table
// reports, in presentation order.
var breakdownPhases = []obs.Phase{
	obs.PhasePlan, obs.PhaseReqExchange, obs.PhaseBarrier, obs.PhasePack,
	obs.PhaseIntra, obs.PhaseExchange, obs.PhaseRMW, obs.PhaseAssembly,
	obs.PhaseIO,
}

// PhaseBreakdown runs both strategies, write and read, with tracing
// attached and reports where the virtual time goes: per-phase seconds
// summed over all rank tracks. It is the tabular twin of the Chrome
// trace — the same spans, folded instead of plotted.
func PhaseBreakdown(o Options) (*Table, error) {
	o = o.withDefaults()
	wl := iorWorkload(24, o.Scale)
	const nodes = 2
	mem := int64(16 << 20)
	fcfg := TestbedFS(o.Seed)
	mcfg := TestbedMachine(nodes, mem, SigmaBytes, o.Seed)
	mccOpts := MCCIOOptions(mcfg, fcfg, wl.TotalBytes(), mem)

	t := &Table{
		Title: "Phase breakdown: per-phase seconds summed over ranks (24 processes, 16MB/agg)",
		Headers: []string{"strategy", "op", "MB/s", "plan", "req-exch", "barrier", "pack",
			"intra", "exchange", "rmw", "assembly", "io"},
	}
	runs := []struct {
		s  iolib.Collective
		op string
	}{
		{collio.TwoPhase{CBBuffer: mem}, "write"},
		{core.MCCIO{Opts: mccOpts}, "write"},
		{collio.TwoPhase{CBBuffer: mem}, "read"},
		{core.MCCIO{Opts: mccOpts}, "read"},
	}
	type phaseOut struct {
		res       trace.Result
		sum       *obs.Summary
		anomalies []explain.Anomaly
	}
	runner := sweep.Sweep[phaseOut]{
		Workers:  o.Parallel,
		Progress: o.Progress,
		Label:    "phases",
		Describe: func(i int, out phaseOut) string {
			return fmt.Sprintf("phases %s %s: %s", runs[i].s.Name(), runs[i].op, out.res.String())
		},
	}
	outs, err := runner.Run(context.Background(), len(runs), func(_ context.Context, i int) (phaseOut, error) {
		r := runs[i]
		// One hermetic recorder per run: the anomaly scan needs the
		// memory timeline, and per-run isolation keeps the table
		// byte-identical at any worker count.
		rec := explain.NewRecorder()
		res, sum, err := RunOncePhases(Spec{Strategy: r.s, Op: r.op, Machine: mcfg, FS: fcfg, Workload: wl, Explain: rec})
		if err != nil {
			return phaseOut{}, fmt.Errorf("%s %s: %w", r.s.Name(), r.op, err)
		}
		anomalies := explain.DetectAnomalies(sum, rec.Events(), explain.AnomalyConfig{})
		return phaseOut{res: res, sum: sum, anomalies: anomalies}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		row := []string{r.s.Name(), r.op, fmt.Sprintf("%.1f", outs[i].res.BandwidthMBps())}
		for _, p := range breakdownPhases {
			row = append(row, fmt.Sprintf("%.4f", outs[i].sum.PhaseSeconds(p)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %s, %.2f GB total", wl.Name(), float64(wl.TotalBytes())/1e9),
		"seconds are summed across all rank tracks; one rank's phases tile its own timeline",
	)
	for i, r := range runs {
		for _, a := range outs[i].anomalies {
			t.Notes = append(t.Notes,
				fmt.Sprintf("warning (%s %s): %s: %s", r.s.Name(), r.op, a.Kind, a.Detail))
		}
	}
	return t, nil
}
