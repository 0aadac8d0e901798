package bench

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Experiment is one `mccio-bench -experiment` mode. The table below is
// the only list of them: the flag help, the unknown-name error, the
// smoke test and README's CLI reference are all derived from it.
type Experiment struct {
	// Name is what -experiment selects the mode by.
	Name string
	// InAll marks the modes `-experiment all` runs: the paper's table
	// and figures plus the ablations. The rest are run by name — chaos
	// verifies every byte and dominates the sweep time; strategies,
	// regression and sweep are fixed-seed trajectories whose output is
	// a golden, not a figure.
	InAll bool
	// Run executes the mode. reg receives the metrics of the modes that
	// feed a live registry (nil disables that); the BenchFile is non-nil
	// for the modes that persist a trajectory (-json).
	Run func(o Options, reg *metrics.Registry) (*Table, *BenchFile, error)
}

var experiments = []Experiment{
	{"table1", true, func(Options, *metrics.Registry) (*Table, *BenchFile, error) { return Table1(), nil, nil }},
	{"fig6", true, figure(Fig6CollPerf)},
	{"fig7", true, figure(Fig7IOR120)},
	{"fig8", true, figure(Fig8IOR1080)},
	{"ablation", true, tableOnly(Ablation)},
	{"memory", true, tableOnly(MemoryPressure)},
	{"exascale", true, tableOnly(Exascale)},
	{"stripes", true, tableOnly(Stripes)},
	{"phases", true, tableOnly(PhaseBreakdown)},
	{"strategies", false, trajectory(RunStrategies, StrategiesTable)},
	{"regression", false, trajectory(RunRegression, trajectoryTable("Regression"))},
	{"chaos", false, func(o Options, reg *metrics.Registry) (*Table, *BenchFile, error) {
		t, err := Chaos(o, reg)
		return t, nil, err
	}},
	{"sweep", false, trajectory(RunSweep, trajectoryTable("Sharded sweep"))},
}

func figure(f func(Options) (*Table, []SweepPoint, error)) func(Options, *metrics.Registry) (*Table, *BenchFile, error) {
	return func(o Options, _ *metrics.Registry) (*Table, *BenchFile, error) {
		t, _, err := f(o)
		return t, nil, err
	}
}

func tableOnly(f func(Options) (*Table, error)) func(Options, *metrics.Registry) (*Table, *BenchFile, error) {
	return func(o Options, _ *metrics.Registry) (*Table, *BenchFile, error) {
		t, err := f(o)
		return t, nil, err
	}
}

func trajectory(run func(Options, *metrics.Registry) (*BenchFile, error), table func(*BenchFile) *Table) func(Options, *metrics.Registry) (*Table, *BenchFile, error) {
	return func(o Options, reg *metrics.Registry) (*Table, *BenchFile, error) {
		b, err := run(o, reg)
		if err != nil {
			return nil, nil, err
		}
		return table(b), b, nil
	}
}

// trajectoryTable renders a bench trajectory for stdout under name.
func trajectoryTable(name string) func(*BenchFile) *Table {
	return func(b *BenchFile) *Table {
		t := &Table{
			Title:   fmt.Sprintf("%s bench (scale %.3g, seed %d)", name, b.Scale, b.Seed),
			Headers: []string{"experiment", "MB/s", "rounds", "aggs", "io MB", "shuffle MB"},
		}
		for _, r := range b.Experiments {
			t.AddRow(r.Key,
				fmt.Sprintf("%.1f", r.BandwidthMBps),
				fmt.Sprintf("%d", r.Rounds),
				fmt.Sprintf("%d", r.Aggregators),
				fmt.Sprintf("%.1f", float64(r.BytesIO)/1e6),
				fmt.Sprintf("%.1f", float64(r.ShuffleIntra+r.ShuffleInter)/1e6))
		}
		return t
	}
}

// ExperimentNames lists every mode in table order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// SelectExperiments resolves an -experiment argument: one mode by
// name, or "all" for every mode marked InAll. An unknown name is an
// error naming the allowed ones.
func SelectExperiments(name string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range experiments {
		if e.Name == name || (name == "all" && e.InAll) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s | all)", name, strings.Join(ExperimentNames(), " | "))
	}
	return out, nil
}
